"""The scripts under scripts/: each runs end to end on a small input."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"


def test_reproduce_run_returns_its_own_run(tmp_path):
    """scripts/reproduce_results.py: each run it reports is the one it made."""
    spec = importlib.util.spec_from_file_location("reproduce_results", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # Every run lands in one output root. Whichever of the first two run
    # directories the file system lists first, taking the first one listed
    # returns the wrong run for seed 2 or for the repeated seed 1.
    for seed in (1, 2, 1):
        run_dir = script.run("urban", seed, tmp_path, n_cities=1, n_gu=5)
        assert json.loads((run_dir / "manifest.json").read_text())["config"]["seed"] == seed
        assert (run_dir / "fits.csv").exists()


def test_bench_stages_writes_every_stage(tmp_path):
    """scripts/bench_stages.py at 1 city and one timing per stage."""
    path = SCRIPT.with_name("bench_stages.py")
    spec = importlib.util.spec_from_file_location("bench_stages", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--label", "smoke", "--repeat", "1", "--n-cities", "1", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    simulate = [f"simulate.{env}" for env in ("urban", "dense_urban", "high_rise")]
    generation = [f"generate.{step}" for step in ("buildings", "sidewalks", "users", "abs")]
    kernel = [f"kernel.{stage}.{city}" for city in ("urban", "heavy") for stage in ("critical", "sweep")]
    stages = ["layouts_hash", *generation, *kernel, "read_counts_csv", "composite_pl", "fit", "report", "oracle_check"]
    processes = ["python", "numpy", "import", "compile", *simulate, "fit", "report", "oracle_check"]
    processes = [f"process.{name}" for name in processes]
    assert list(record["stages"]) == simulate + stages + processes
    assert all(len(s["times_s"]) == 1 and s["best_s"] > 0 for s in record["stages"].values())
    assert record["run"]["n_cities"] == 1 and record["run"]["heavy_n_gu"] == 1500

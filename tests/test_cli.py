"""CLI pipeline: subcommands, exit codes, output schemas, and
byte-identical reproduction from manifests."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import urbanlos
from urbanlos import citygen, oracle
from urbanlos.citygen import PRESETS, GenConfig, generate_city
from urbanlos.cli import CONFIG_SCHEMA, main
from urbanlos.geometry import LayoutGeometry, LinkClass
from urbanlos.montecarlo import SweepConfig, tree_density_sweep
from urbanlos.outputs import layouts_hash, read_csv_dicts, write_counts_csv, write_csv

SIM_ARGS = [
    "simulate",
    "--env",
    "urban",
    "--seed",
    "5",
    "--n-cities",
    "2",
    "--n-gu",
    "10",
    "--n-trees",
    "30",
    "--n-lights",
    "40",
]


def _run_dir(root: Path) -> Path:
    dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    assert main(SIM_ARGS + ["--densities", "0,20", "--out", str(root)]) == 0
    run = _run_dir(root)
    assert main(["fit", "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0
    return run


def test_generate_deterministic(tmp_path, capsys):
    args = ["generate", "--env", "urban", "--seed", "42", "--out", str(tmp_path / "a")]
    assert main(args) == 0
    assert main(["generate", "--env", "urban", "--seed", "42", "--out", str(tmp_path / "b")]) == 0
    a = _run_dir(tmp_path / "a") / "layout.json"
    b = _run_dir(tmp_path / "b") / "layout.json"
    assert a.read_bytes() == b.read_bytes()
    layout = json.loads(a.read_text())
    assert len(layout["buildings"]) == 500


def test_generate_validation_exit(tmp_path, capsys):
    code = main(["generate", "--env", "urban", "--alpha", "1.5", "--seed", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_generate_infeasible_exit(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--alpha",
            "0.98",
            "--beta",
            "20",
            "--gamma",
            "15",
            "--seed",
            "1",
            "--n-trees",
            "0",
            "--n-lights",
            "0",
            "--n-gu",
            "0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_flags_do_not_leak_into_defaults(tmp_path):
    base = ["generate", "--env", "urban", "--seed", "3", "--n-trees", "0", "--n-lights", "0"]
    assert main(base + ["--n-gu", "7", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert a.name != b.name
    assert len(json.loads((a / "layout.json").read_text())["users"]) == 7
    assert len(json.loads((b / "layout.json").read_text())["users"]) == 100


BAD_CONFIG_FILES = [
    ("gen: {n_tres: 5}\n", "gen.n_tres"),
    ("sweeps: {n_cities: 2}\n", "sweeps"),
    ("freq_ghz: .nan\n", "freq_ghz"),
    ("gen: {area: .inf}\n", "gen.area"),
    ("sweep: {angles: [1.0, .nan]}\n", "sweep.angles"),
    ("- not a mapping\n", "mapping"),
    ("gen: {h_gu: abc}\n", "gen.h_gu"),
    ("sweep: {angles: 5}\n", "sweep.angles"),
    ("sweep: {fixed_altitude_m: abc}\n", "sweep.fixed_altitude_m"),
    ("sweep: {angles: [a, b]}\n", "sweep.angles"),
    ("scenarios: full\n", "scenarios"),
    ("scenarios: [1]\n", "scenarios"),
    ("environment: foo\n", "environment"),
    ("{environment: urban, alpha: '0.3'}\n", "alpha"),
    ("gen: {h_gu: 1e400}\n", "gen.h_gu"),
    ("freq_ghz: abc\n", "freq_ghz"),
    ('gen: {h_gu: "3.0"}\n', "gen.h_gu"),
    ("sweep: {angles: [true]}\n", "sweep.angles"),
    ("gen: {area: true}\n", "gen.area"),
]


@pytest.mark.parametrize("text, key", BAD_CONFIG_FILES, ids=[text for text, _ in BAD_CONFIG_FILES])
def test_bad_config_file_exit(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    code = main(["simulate", "--env", "urban", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config" in err
    assert key in err
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def _nested_yaml(path: str, value: str) -> str:
    *sections, key = path.split(".")
    text = f"{key}: {value}"
    for section in reversed(sections):
        text = f"{section}: {{{text}}}"
    return text + "\n"


@pytest.mark.parametrize("value", ["true", ".nan", "[true]", "{a: 1}"])
@pytest.mark.parametrize("path", list(CONFIG_SCHEMA))
def test_schema_rejects_wrong_kind(tmp_path, capsys, path, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_nested_yaml(path, value))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert path in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


@pytest.mark.parametrize(
    "text, key",
    [
        ("gen: {n_gu: 2.7}\n", "n_gu"),
        ("gen: {n_trees: 3.0}\n", "n_trees"),
        ("gen: {n_lights: true}\n", "n_lights"),
        ("sweep: {n_cities: 1.5}\n", "n_cities"),
        ("seed: 1.5\n", "seed"),
        ("densities: [0, 2.5]\n", "densities"),
        ("densities: 5\n", "densities"),
    ],
)
def test_non_integer_count_exit(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    code = main(["generate", "--env", "urban", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_bad_densities_flag_exit(tmp_path, capsys):
    code = main(["simulate", "--env", "urban", "--seed", "1", "--densities", "1,x", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exit(tmp_path, capsys):
    code = main(["generate", "--env", "urban", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert code == 3
    assert "nope.yaml" in capsys.readouterr().err


def test_malformed_config_file_exit(tmp_path, capsys):
    # the trailing comma is valid YAML but not JSON
    for name, text in (
        ("cfg.yaml", b"gen: {n_gu: @5}\n"),
        ("cfg.json", b'{"gen": {"n_gu": 5,}}\n'),
        ("utf16.yaml", b"\xff\xfeg\x00e\x00n\x00"),  # not UTF-8
    ):
        cfg = tmp_path / name
        cfg.write_bytes(text)
        code = main(["generate", "--env", "urban", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert name in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_cli_import_leaves_yaml_unloaded():
    """PyYAML is imported only when a YAML config file is read."""
    src = str(Path(urbanlos.__file__).parents[1])
    code = "import sys, urbanlos.cli; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_write_csv_writes_numpy_floats_as_numbers(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(np.float64(0.1), 0.1, 3)])
    assert read_csv_dicts(path) == [{"a": "0.1", "b": "0.1", "c": "3"}]


def test_manifest_replays_exponent_form_reals(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("gen: {h_gu: 0.00001}\n")
    args = ["generate", "--env", "urban", "--seed", "1", "--n-gu", "2"]
    assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    run = _run_dir(tmp_path / "a")
    manifest = run / "manifest.json"
    assert '"h_gu": 1e-05' in manifest.read_text()
    assert main(["generate", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
    rerun = _run_dir(tmp_path / "b")
    assert rerun.name == run.name
    assert (rerun / "layout.json").read_bytes() == (run / "layout.json").read_bytes()


def test_integer_built_up_params_match_flags(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("beta: 500\n")
    args = ["generate", "--env", "urban", "--seed", "1", "--n-gu", "2"]
    assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert main(args + ["--beta", "500", "--out", str(tmp_path / "flag")]) == 0
    from_file = (_run_dir(tmp_path / "file") / "layout.json").read_bytes()
    assert from_file == (_run_dir(tmp_path / "flag") / "layout.json").read_bytes()


def test_non_finite_flag_exit(tmp_path, capsys):
    code = main(["simulate", "--env", "urban", "--seed", "1", "--freq-ghz", "nan", "--out", str(tmp_path)])
    assert code == 1
    assert "freq_ghz" in capsys.readouterr().err


def test_simulate_rejects_bad_frequency(tmp_path, capsys):
    code = main(["simulate", "--env", "urban", "--seed", "1", "--freq-ghz", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "f_ghz" in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_simulate_requires_seed(tmp_path, capsys):
    code = main(["simulate", "--env", "urban", "--out", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_simulate_outputs(sim_run):
    names = {p.name for p in sim_run.iterdir()}
    for scenario in ("buildings-only", "trees", "full"):
        assert f"angles_{scenario}.csv" in names
        assert f"distance_{scenario}.csv" in names
    assert "delta_buildings-only_vs_trees.csv" in names
    assert "density_0.csv" in names and "density_20.csv" in names
    assert "manifest.json" in names


def test_angle_csv_partition(sim_run):
    rows = read_csv_dicts(sim_run / "angles_full.csv")
    assert len(rows) == 90
    for row in rows:
        total = sum(float(row[k]) for k in ("p_los", "p_nlos_b", "p_nlos_t", "p_nlos_s"))
        assert abs(total - 1.0) < 1e-12
        assert int(row["n"]) == 20


def test_manifest_records_sample_count(sim_run):
    manifest = json.loads((sim_run / "manifest.json").read_text())
    assert manifest["n_samples"] == 2 * 10 * 90
    assert manifest["config_hash"] == sim_run.name
    assert len(manifest["layout_hash"]) == 64


def test_fit_output(sim_run):
    rows = read_csv_dicts(sim_run / "fits.csv")
    assert [r["scenario"] for r in rows] == ["buildings-only", "trees"]
    for row in rows:
        assert row["environment"] == "urban"
        assert float(row["rmse_dB"]) >= 0.0
        assert int(row["n"]) > 2


def test_fit_takes_no_frequency_flag(sim_run, tmp_path, capsys):
    """fit reads freq_ghz from the run's manifest only."""
    run = tmp_path / "run"
    shutil.copytree(sim_run, run)
    fits = (run / "fits.csv").read_bytes()
    assert main(["fit", "--run", str(run), "--freq-ghz", "60"]) == 1
    assert "--freq-ghz" in capsys.readouterr().err
    assert (run / "fits.csv").read_bytes() == fits


def test_fit_missing_inputs(tmp_path, capsys):
    assert main(["fit", "--run", str(tmp_path / "nope")]) == 3


CORRUPTIONS = {
    "off-count": lambda v: repr(float(v) + 0.01),
    "off-partition": lambda v: "2.0",
    "nan": lambda v: "nan",
    "inf": lambda v: "inf",
    "text": lambda v: "x",
    "short": None,  # the row cut to its first three cells
}
# the corruptions of a probability cell; an inf one takes nan's path
P_CORRUPTIONS = ["off-count", "off-partition", "nan", "text", "short"]
# (command, file it must reject, corrupted column, corruption)
CORRUPT_INPUTS = [("fit", "distance_trees.csv", "p_los", kind) for kind in P_CORRUPTIONS] + [
    ("report", name, "p_los", kind)
    for name in ("distance_full.csv", "density_20.csv")
    for kind in P_CORRUPTIONS
] + [
    ("fit", "distance_trees.csv", "bin_center_m", "text"),
    ("fit", "distance_trees.csv", "mean_d_m", "text"),
    ("report", "angles_trees.csv", "theta_deg", "text"),
    ("fit", "distance_trees.csv", "bin_center_m", "nan"),
    ("fit", "distance_trees.csv", "bin_center_m", "inf"),
    ("fit", "distance_trees.csv", "mean_d_m", "nan"),
    ("report", "angles_trees.csv", "theta_deg", "nan"),
]


def _corrupt_input_id(cmd, name, column, kind):
    """Test id of a case: the bare kind for fit's p_los cells, and no kind
    suffix for a text key or mean cell."""
    if column == "p_los":
        return kind if cmd == "fit" else f"{cmd}-{name}-{kind}"
    return f"{cmd}-{name}-{column}" + ("" if kind == "text" else f"-{kind}")


@pytest.mark.parametrize(
    "command, name, column, kind",
    CORRUPT_INPUTS,
    ids=[_corrupt_input_id(*case) for case in CORRUPT_INPUTS],
)
def test_fit_rejects_corrupt_probability(sim_run, tmp_path, capsys, command, name, column, kind):
    run = tmp_path / "run"
    shutil.copytree(sim_run, run)
    path = run / name
    lines = path.read_text().splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    if CORRUPTIONS[kind] is None:
        del cells[3:]
    else:
        cells[at] = CORRUPTIONS[kind](cells[at])  # the column's cell in the first row
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    for report in run.glob("report_*.csv"):  # as a run not yet reported
        report.unlink()
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main([command, "--run", str(run)]) == 1
    assert name in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before  # nothing written


def _count_calls(monkeypatch, owner, names) -> Counter:
    """Count calls of each named function of owner: on owner itself when it
    is a class, else in every module binding it."""
    calls = Counter()
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, counted)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("urbanlos") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("densities, users_per_city", [(None, 1), ("0,100,200,400", 2)])
def test_simulate_builds_each_city_once(tmp_path, monkeypatch, densities, users_per_city):
    calls = _count_calls(monkeypatch, citygen, ["place_buildings", "place_trees", "place_lights", "place_users"])
    extra = ["--densities", densities] if densities else []
    assert main(SIM_ARGS + extra + ["--out", str(tmp_path)]) == 0
    n_cities = 2
    assert calls == {
        "place_buildings": n_cities,
        "place_trees": n_cities,
        "place_lights": n_cities,
        "place_users": users_per_city * n_cities,
    }


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("plain")
    assert main(SIM_ARGS + ["--out", str(root)]) == 0
    return _run_dir(root)


# the largest density below, equal to and above SIM_ARGS' 30 trees
@pytest.mark.parametrize(
    "densities", [[], [0, 10], [0, 10, 30], [0, 60]], ids=["absent", "below", "equal", "above"]
)
def test_shared_build_matches_separate_builds(plain_run, tmp_path, densities):
    extra = ["--densities", ",".join(map(str, densities))] if densities else []
    assert main(SIM_ARGS + extra + ["--out", str(tmp_path / "runs")]) == 0
    run = _run_dir(tmp_path / "runs")
    gen = GenConfig(n_trees=30, n_lights=40, n_gu=10, seed=5)  # as SIM_ARGS
    sweep = SweepConfig(n_cities=2)
    expected = layouts_hash(generate_city(PRESETS["urban"], gen, i) for i in range(sweep.n_cities))
    assert json.loads((run / "manifest.json").read_text())["layout_hash"] == expected
    for path in plain_run.glob("*.csv"):
        assert (run / path.name).read_bytes() == path.read_bytes(), path.name
    curves = tree_density_sweep(PRESETS["urban"], gen, sweep, densities) if densities else {}
    assert sorted(p.name for p in run.glob("density_*.csv")) == sorted(f"density_{k}.csv" for k in curves)
    for k, curve in curves.items():
        write_counts_csv(tmp_path / "direct.csv", curve)
        assert (run / f"density_{k}.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_report_outputs(sim_run):
    for name in (
        "report_plos_vs_distance.csv",
        "report_tree_nlos_vs_theta.csv",
        "report_density.csv",
        "report_pl_vs_theta.csv",
    ):
        assert (sim_run / name).exists(), name
    pl_rows = read_csv_dicts(sim_run / "report_pl_vs_theta.csv")
    assert all(float(r["theta_deg"]) > 0.0 for r in pl_rows)
    densities = {int(r["density"]) for r in read_csv_dicts(sim_run / "report_density.csv")}
    assert densities == {0, 20}


def test_report_uses_run_ground_user_height(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("gen: {h_gu: 3.0}\n")
    root = tmp_path / "r"
    args = ["simulate", "--env", "urban", "--seed", "2", "--n-cities", "1", "--n-gu", "5"]
    assert main(args + ["--config", str(cfg), "--out", str(root)]) == 0
    run = _run_dir(root)
    assert main(["fit", "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0
    rows = read_csv_dicts(run / "report_pl_vs_theta.csv")
    assert rows
    for row in rows:
        theta = float(row["theta_deg"])
        expected = (100.0 - 3.0) / math.sin(math.radians(theta))
        assert float(row["d_m"]) == pytest.approx(expected, rel=1e-12)


def test_report_ignores_stray_density_file(sim_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(sim_run, run)
    (run / "density_old.csv").write_bytes((run / "density_20.csv").read_bytes())
    assert main(["report", "--run", str(run)]) == 0
    for path in sim_run.glob("report_*.csv"):
        assert (run / path.name).read_bytes() == path.read_bytes(), path.name


def test_report_requires_every_density_file(sim_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(sim_run, run)
    (run / "density_20.csv").unlink()
    assert main(["report", "--run", str(run)]) == 3
    assert "density_20.csv" in capsys.readouterr().err


def test_report_missing_prerequisites(tmp_path, capsys):
    root = tmp_path / "r"
    assert main(SIM_ARGS + ["--out", str(root)]) == 0
    run = _run_dir(root)
    code = main(["report", "--run", str(run)])
    assert code == 3
    assert "fits.csv" in capsys.readouterr().err


@pytest.mark.parametrize("scenarios", ["buildings,+trees", "trees,trees"])
def test_simulate_takes_each_scenario_once_by_name(tmp_path, capsys, scenarios):
    assert main(SIM_ARGS + ["--scenario", scenarios, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_report_checks_trees_scenario_before_writing(tmp_path, capsys):
    assert main(SIM_ARGS + ["--scenario", "buildings-only,full", "--out", str(tmp_path)]) == 0
    run = _run_dir(tmp_path)
    assert main(["fit", "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 3
    assert "trees scenario" in capsys.readouterr().err
    assert not list(run.glob("report_*"))


# the manifest's bytes, or an edit of the run's own manifest config
CORRUPT_MANIFESTS = {
    "truncated": b"{",
    "not-utf8": b"\xff\xfe{\x00}\x00",
    "list": b"[]",
    "empty": b"{}",
    "no-scenarios": b'{"config": {"seed": 5}}',
    "config-not-mapping": b'{"config": [], "scenarios": ["trees"]}',
    "config-empty": b'{"config": {}, "scenarios": ["trees"]}',
    "seed-text": lambda config: config.update(seed="x"),
    "seed-null": lambda config: config.update(seed=None),
    "freq-text": lambda config: config.update(freq_ghz="x"),
    "no-gen": lambda config: config.pop("gen"),
    "h_gu-text": lambda config: config["gen"].update(h_gu="abc"),
    "densities-count": lambda config: config.update(densities=5),
    # valid values that are not the run's: the config no longer hashes to
    # the run's config_hash
    "seed-edited": lambda config: config.update(seed=6),
    "h_gu-edited": lambda config: config["gen"].update(h_gu=3.0),
}


@pytest.mark.parametrize("kind", CORRUPT_MANIFESTS)
@pytest.mark.parametrize("command", ["fit", "report"])
def test_corrupt_manifest_exit(sim_run, tmp_path, capsys, command, kind):
    run = tmp_path / "run"
    shutil.copytree(sim_run, run)
    corrupt = CORRUPT_MANIFESTS[kind]
    if callable(corrupt):
        manifest = json.loads((run / "manifest.json").read_text())
        corrupt(manifest["config"])
        corrupt = json.dumps(manifest).encode()
    (run / "manifest.json").write_bytes(corrupt)
    assert main([command, "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "manifest.json" in err


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--env", "urban", "--densities", "50,0"], 1),
        (["--env", "urban", "--densities=-5,0"], 1),
        (["--env", "urban", "--densities", "0,20,20"], 1),
        (["--alpha", "0.98", "--beta", "20", "--gamma", "15", "--n-trees", "0", "--n-lights", "0"], 2),
    ],
    ids=["unsorted-densities", "negative-density", "repeated-density", "infeasible"],
)
def test_failed_simulate_leaves_no_run_directory(tmp_path, capsys, flags, code):
    args = ["simulate", "--seed", "1", "--n-cities", "1", "--n-gu", "2", *flags]
    assert main(args + ["--out", str(tmp_path)]) == code
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "altitude, code, named",
    [
        (0.5, 1, ("sweep.fixed_altitude_m", "gen.h_gu")),
        (1.5, 0, ()),
        (100000.0, 0, ()),
        (300000.0, 1, ("fixed_altitude_m", "100000")),
    ],
    ids=["below-users", "at-users", "at-cap", "above-cap"],
)
def test_fixed_altitude_not_below_ground_users(tmp_path, capsys, altitude, code, named):
    """A fixed ABS altitude below gen.h_gu (1.5 m by default) or above the
    100 km altitude cap exits 1 and leaves no run directory; either bound
    itself is a valid link height."""
    cfg = tmp_path / "f.yaml"
    cfg.write_text(f"sweep: {{altitude_policy: fixed, fixed_altitude_m: {altitude}}}\n")
    args = ["simulate", "--env", "urban", "--seed", "1", "--n-cities", "1", "--n-gu", "5"]
    assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "runs")]) == code
    if code:
        err = capsys.readouterr().err
        assert "error:" in err and all(fragment in err for fragment in named)
        assert not (tmp_path / "runs").exists()


def test_repeated_sweep_angle_exit(tmp_path, capsys):
    """A sweep angle given twice exits 1 and leaves no run directory.
    Before, every angles CSV held the angle's row twice, and report gave
    that angle two tree path losses."""
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps({"sweep": {"angles": [5, 5, 10]}}))
    args = ["simulate", "--env", "urban", "--seed", "1", "--n-cities", "1", "--n-gu", "5"]
    assert main(args + ["--config", str(cfg), "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "angle" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "args, h_gu, code",
    [
        (["simulate", "--n-cities", "1", "--n-gu", "5"], 200000.0, 1),
        (["simulate", "--n-cities", "1", "--n-gu", "5"], 100000.0, 0),
        (["oracle-check", "--n-links", "5"], 20000.0, 1),
        (["oracle-check", "--n-links", "5"], 10000.0, 0),
    ],
    ids=["simulate-above-cap", "simulate-at-cap", "oracle-check-above-cap", "oracle-check-at-cap"],
)
def test_ground_users_not_above_altitude_cap(tmp_path, capsys, args, h_gu, code):
    """gen.h_gu above the ABS altitude cap (100 km for simulate, 10 km for
    oracle-check's links) exits 1 and names gen.h_gu and the cap, and
    simulate leaves no run directory; h_gu at the cap is a valid link
    height. Before, simulate capped every ABS below its users and exited 0."""
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"gen": {"h_gu": h_gu}}))
    out = ["--out", str(tmp_path / "runs")] if args[0] == "simulate" else []
    assert main(args + ["--env", "urban", "--seed", "1", "--config", str(cfg), *out]) == code
    if code:
        err = capsys.readouterr().err
        cap = "100000" if args[0] == "simulate" else "10000"
        assert "error:" in err and "gen.h_gu" in err and re.search(rf"\b{cap}\b", err)
        assert not (tmp_path / "runs").exists()


def test_report_rerun_identical_bytes(sim_run):
    before = {
        p.name: p.read_bytes() for p in sim_run.glob("report_*.csv")
    }
    assert main(["report", "--run", str(sim_run)]) == 0
    after = {p.name: p.read_bytes() for p in sim_run.glob("report_*.csv")}
    assert before == after


def test_every_csv_parses_cleanly(sim_run):
    text_columns = {"scenario", "environment"}
    for path in sim_run.glob("*.csv"):
        rows = read_csv_dicts(path)
        assert rows, path.name
        for row in rows:
            for key, value in row.items():
                if key not in text_columns:
                    float(value)


def test_manifest_reproduces_run(sim_run, tmp_path):
    manifest = sim_run / "manifest.json"
    root = tmp_path / "repro"
    assert main(["simulate", "--config", str(manifest), "--out", str(root)]) == 0
    rerun = _run_dir(root)
    assert rerun.name == sim_run.name  # same resolved config, same hash
    for path in sim_run.glob("*.csv"):
        if path.name.startswith(("fits", "report")):
            continue
        assert (rerun / path.name).read_bytes() == path.read_bytes(), path.name


def test_edited_manifest_does_not_replay(sim_run, tmp_path, capsys):
    manifest = json.loads((sim_run / "manifest.json").read_text())
    del manifest["config"]["gen"]["n_gu"]  # would replay with the default 100 users
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(path) in err and sim_run.name in err
    assert not (tmp_path / "runs").exists()


def test_flags_win_over_manifest(sim_run, tmp_path):
    root = tmp_path / "runs"
    args = ["simulate", "--config", str(sim_run / "manifest.json"), "--n-cities", "1"]
    assert main(args + ["--out", str(root)]) == 0
    rerun = _run_dir(root)
    assert rerun.name != sim_run.name
    expected = json.loads((sim_run / "manifest.json").read_text())["config"]
    expected["sweep"]["n_cities"] = 1
    assert json.loads((rerun / "manifest.json").read_text())["config"] == expected


@pytest.mark.parametrize(
    "args",
    [["generate", "--n-gu", "2"], ["simulate", "--n-cities", "1", "--n-gu", "2"]],
    ids=["generate", "simulate"],
)
def test_run_directory_taken_by_file(tmp_path, capsys, monkeypatch, args):
    args = args + ["--env", "urban", "--seed", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    run = _run_dir(tmp_path)
    shutil.rmtree(run)
    run.write_text("")
    calls = _count_calls(monkeypatch, citygen, ["generate_obstacles"])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(run) in err
    assert not calls


def test_oracle_check(tmp_path, capsys):
    dump = tmp_path / "hits.json"
    code = main(
        [
            "oracle-check",
            "--env",
            "urban",
            "--seed",
            "7",
            "--n-links",
            "25",
            "--dump-hits",
            str(dump),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    hits = json.loads(dump.read_text())
    assert len(hits) == 25
    assert {"abs_xy", "gu_xy", "h_abs", "analytic_hits", "bruteforce_crossed"} <= set(hits[0])


def test_oracle_check_reports_first_ten_disagreements(monkeypatch, capsys):
    """With the oracle made to disagree on 12 of 25 links, the summary
    counts all 12 and the first 10 are listed with both classes."""
    real = oracle.classify_link_bruteforce
    flipped, seen, expected = range(1, 25, 2), [], []

    def disagreeing(link, families):
        result, i = real(link, families), len(seen)
        seen.append(link)
        if i not in flipped:
            return result
        # the real oracle agrees with the analytic class on these links
        other = LinkClass.NLOS_LIGHT if result.link_class is LinkClass.LOS else LinkClass.LOS
        expected.append(f"  link {i}: analytic={result.link_class.value} bruteforce={other.value}")
        return replace(result, link_class=other)

    monkeypatch.setattr(oracle, "classify_link_bruteforce", disagreeing)
    assert main(["oracle-check", "--env", "urban", "--seed", "7", "--n-links", "25"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(expected) == 12
    assert out == ["25 links, 12 disagreements (step 0.01 m)", *expected[:10]]


def test_oracle_check_runs_oracle_once_per_link(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, oracle, ["classify_link_bruteforce"])
    kernel = _count_calls(monkeypatch, LayoutGeometry, ["_critical_points"])
    args = ["oracle-check", "--env", "high_rise", "--seed", "1", "--n-links", "50"]
    assert main(args + ["--dump-hits", str(tmp_path / "hits.json")]) == 0
    assert calls["classify_link_bruteforce"] == 50
    assert kernel["_critical_points"] == 1  # the analytic side, once for all links


@pytest.mark.parametrize(
    "args, flag, target",
    [
        (["oracle-check", "--n-links", "3"], "--dump-hits", "missing/hits.json"),
        (["oracle-check", "--n-links", "2"], "--dump-hits", "adir"),
        (["simulate", "--n-cities", "1", "--n-gu", "2"], "--out", "file/runs"),
    ],
    ids=["dump-hits-in-missing-dir", "dump-hits-is-dir", "out-under-file"],
)
def test_output_path_checked_before_work(tmp_path, capsys, monkeypatch, args, flag, target):
    (tmp_path / "file").write_text("")
    (tmp_path / "adir").mkdir()
    calls = _count_calls(monkeypatch, citygen, ["generate_obstacles"])
    assert main(args + ["--env", "urban", "--seed", "1", flag, str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag in err
    assert not calls


@pytest.mark.parametrize(
    "flags",
    [
        ["--step", "0.05"],
        ["--n-links", "-3"],
        ["--n-links", "0"],
        ["--out", "x"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_oracle_check_rejects_bad_flags(capsys, flags):
    args = ["oracle-check", "--env", "urban", "--seed", "1", "--n-links", "3", *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flags[0] in err


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
        ["oracle-check", "--seed", "-1"],
        ["simulate", "--config", "cfg.yaml"],
    ],
    ids=lambda args: " ".join(args),
)
def test_negative_seed_exit(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # the default --out is under it
    Path("cfg.yaml").write_text("seed: -1\n")
    assert main(args + ["--env", "urban", "--n-gu", "2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "seed" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
def test_commands_drawing_links_need_users(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # simulate's default --out is under it
    assert main([command, "--env", "urban", "--seed", "1", "--n-gu", "0"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "n_gu" in err
    assert not list(tmp_path.iterdir())

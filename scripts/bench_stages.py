#!/usr/bin/env python3
"""Time the pipeline's stages and write BENCH_<label>.json.

Each stage is timed --repeat times and the file records the best time and
every time, in seconds, with the machine it ran on. The default run is
simulate at its default scale (30 cities x 100 users x 90 angles, the
three scenarios and the 0,100,200,400 density sweep) under seed 1, in
each environment; the other stages work on the urban run:

- simulate.<env>: one simulate of the environment through cli.main;
- layouts_hash: outputs.layouts_hash over the run's layouts;
- generate.buildings, generate.sidewalks, generate.users, generate.abs:
  the run's cities placed again, a stage per step, on the arguments that
  generate_obstacles, add_users and the sweep's ABS draw pass: buildings
  (place_buildings), trees and lights (place_trees, place_lights), users
  (add_users) and the ABS position (sample_open_point);
- read_counts_csv: every count CSV of the run, read once each;
- composite_pl: composite_bins of the buildings-only and trees distance
  tables and pl_vs_theta of their angle tables, as fit and report call
  them;
- fit, report: the commands through cli.main on the run directory;
- oracle_check: oracle-check through cli.main on a high_rise city of the
  same seed, 300 links, with its --dump-hits file;
- process.python, process.numpy, process.import: a fresh interpreter
  running nothing, `import numpy` and `import urbanlos.cli`;
- process.simulate.<env>, process.fit, process.report,
  process.oracle_check: the same commands as fresh
  `python -m urbanlos.cli` processes, as a user runs them.

The in-process stages leave out what every CLI call pays around its
work: interpreter start, imports and shutdown. The process stages run on
this checkout's src/ with one BLAS thread, as perfbench does.

Run directories go to a temporary directory that is removed afterwards.
Compare two commits by running the script under each one's src/ on the
same machine.

Usage: PYTHONPATH=src python scripts/bench_stages.py --label <label>
       [--repeat N] [--n-cities K] [--out DIR]
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":  # one BLAS thread, as perfbench runs; set before numpy loads
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from urbanlos.citygen import (
    DISC,
    PRESETS,
    STREAM_ABS,
    STREAM_BUILDINGS,
    STREAM_LIGHTS,
    STREAM_TREES,
    FootprintIndex,
    GenConfig,
    add_users,
    city_rng,
    generate_city,
    generate_obstacles,
    place_buildings,
    place_lights,
    place_trees,
    sample_open_point,
    table,
)
from urbanlos.cli import main as cli_main
from urbanlos.geometry import LayoutGeometry
from urbanlos.outputs import ANGLE_KEY, DISTANCE_KEY, layouts_hash, read_counts_csv
from urbanlos.pathloss import composite_bins, pl_vs_theta

ENVIRONMENTS = ("urban", "dense_urban", "high_rise")
DENSITIES = "0,100,200,400"
SEED = 1
ORACLE_LINKS = 300
ROOT = Path(__file__).resolve().parents[1]


def _cli(argv: list[str]) -> str:
    """Run one command, check it exits 0, and return its last stdout line."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return printed.getvalue().splitlines()[-1]


def _process(args: list[str]) -> None:
    """Run python with args as a fresh process on this checkout's src/
    and check it exits 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise SystemExit(f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")


def _best_of(repeat: int, stage) -> dict:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        stage()
        times.append(time.perf_counter() - start)
    return {"best_s": min(times), "times_s": times}


def _machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        names = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
    }


def _generation_stages(repeat: int, layouts: list) -> dict:
    """The generation steps of layouts, city i of the urban seed-1 run,
    timed over all of them."""
    params, config = PRESETS["urban"], GenConfig(seed=SEED)
    obstacles = [generate_obstacles(params, config, i) for i in range(len(layouts))]
    empty = table((), DISC)
    bare = [FootprintIndex(city.buildings, empty, empty, config.side) for city in obstacles]
    geoms = [LayoutGeometry(layout) for layout in layouts]

    def buildings():
        for i in range(len(layouts)):
            place_buildings(params, config, city_rng(SEED, i, STREAM_BUILDINGS))

    def sidewalks():
        for i, index in enumerate(bare):
            place_trees(index, config, city_rng(SEED, i, STREAM_TREES))
            place_lights(index, config, city_rng(SEED, i, STREAM_LIGHTS))

    def users():
        for i, city in enumerate(obstacles):
            add_users(city, config.n_trees, i)

    def abs_draw():
        for i, geom in enumerate(geoms):
            sample_open_point(geom.index, city_rng(SEED, i, STREAM_ABS), what="abs")

    steps = {"buildings": buildings, "sidewalks": sidewalks, "users": users, "abs": abs_draw}
    return {f"generate.{name}": _best_of(repeat, step) for name, step in steps.items()}


def bench(label: str, repeat: int, n_cities: int, out: Path) -> Path:
    stages, runs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        simulate = {
            env: ["simulate", "--env", env, "--seed", str(SEED), "--n-cities", str(n_cities)]
            + ["--densities", DENSITIES, "--out", tmp]
            for env in ENVIRONMENTS
        }
        for env, argv in simulate.items():
            stages[f"simulate.{env}"] = _best_of(repeat, lambda: runs.__setitem__(env, Path(_cli(argv))))
        run = runs["urban"]

        layouts = [generate_city(PRESETS["urban"], GenConfig(seed=SEED), i) for i in range(n_cities)]
        if json.loads((run / "manifest.json").read_text())["layout_hash"] != layouts_hash(layouts):
            raise SystemExit("the regenerated layouts do not hash to the run's layout_hash")
        stages["layouts_hash"] = _best_of(repeat, lambda: layouts_hash(layouts))
        stages.update(_generation_stages(repeat, layouts))

        tables = [(p, DISTANCE_KEY if p.name.startswith("distance_") else ANGLE_KEY) for p in sorted(run.glob("*.csv"))]
        tables = [(p, key) for p, key in tables if not p.name.startswith("delta_")]
        stages["read_counts_csv"] = _best_of(repeat, lambda: [read_counts_csv(p, key) for p, key in tables])

        read = {p.name: read_counts_csv(p, key) for p, key in tables}

        def composite():
            for scenario in ("buildings-only", "trees"):
                composite_bins(read[f"distance_{scenario}.csv"], seed=SEED)
                pl_vs_theta(read[f"angles_{scenario}.csv"], seed=SEED)

        stages["composite_pl"] = _best_of(repeat, composite)
        for command in ("fit", "report"):
            stages[command] = _best_of(repeat, lambda: _cli([command, "--run", str(run)]))
        oracle = ["oracle-check", "--env", "high_rise", "--seed", str(SEED), "--n-links", str(ORACLE_LINKS)]
        oracle += ["--dump-hits", str(Path(tmp) / "hits.json")]
        stages["oracle_check"] = _best_of(repeat, lambda: _cli(oracle))

        for name, code in (("python", "pass"), ("numpy", "import numpy"), ("import", "import urbanlos.cli")):
            stages[f"process.{name}"] = _best_of(repeat, lambda: _process(["-c", code]))
        commands = {f"simulate.{env}": argv for env, argv in simulate.items()}
        commands.update({command: [command, "--run", str(run)] for command in ("fit", "report")})
        commands["oracle_check"] = oracle
        for name, argv in commands.items():
            stages[f"process.{name}"] = _best_of(repeat, lambda: _process(["-m", "urbanlos.cli", *argv]))

    path = out / f"BENCH_{label}.json"
    record = {
        "label": label,
        "repeat": repeat,
        "run": {"seed": SEED, "n_cities": n_cities, "n_gu": 100, "densities": DENSITIES, "oracle_links": ORACLE_LINKS},
        "machine": _machine(),
        "stages": stages,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file: BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5, help="timings per stage; the best is reported")
    parser.add_argument("--n-cities", type=int, default=30)
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to (default: the repository root)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.n_cities < 1:
        parser.error("--repeat and --n-cities must be >= 1")
    if not args.out.is_dir():
        parser.error(f"--out {args.out} is not a directory")
    path = bench(args.label, args.repeat, args.n_cities, args.out)
    for name, stage in json.loads(path.read_text())["stages"].items():
        print(f"{name:<30}{stage['best_s'] * 1e3:10.2f} ms")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the full pipeline for the three standard environments.

For each environment this simulates the default-scale sweep (30 cities x
100 users) under one master seed, fits the A-B path-loss models, emits
the report CSV bundle, and prints a summary table. Outputs land under
--out (default runs/), one hashed directory per environment.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from urbanlos.cli import main as cli_main
from urbanlos.outputs import read_csv_dicts


def run(env: str, seed: int, out: Path, n_cities: int, n_gu: int) -> Path:
    root = out / env
    simulate = ["simulate", "--env", env, "--seed", str(seed), "--n-cities", str(n_cities)]
    simulate += ["--n-gu", str(n_gu), "--densities", "0,100,200,400", "--out", str(root)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):  # simulate prints its run directory
        code = cli_main(simulate)
    if code != 0:
        raise SystemExit(code)
    run_dir = Path(printed.getvalue().splitlines()[-1])
    for step in (["fit", "--run", str(run_dir)], ["report", "--run", str(run_dir)]):
        code = cli_main(step)
        if code != 0:
            raise SystemExit(code)
    return run_dir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n-cities", type=int, default=30)
    parser.add_argument("--n-gu", type=int, default=100)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    args = parser.parse_args()

    print(f"{'environment':<14}{'scenario':<16}{'A [dB]':>10}{'B':>8}{'RMSE [dB]':>12}")
    for env in ("urban", "dense_urban", "high_rise"):
        run_dir = run(env, args.seed, args.out, args.n_cities, args.n_gu)
        for row in read_csv_dicts(run_dir / "fits.csv"):
            print(
                f"{env:<14}{row['scenario']:<16}"
                f"{float(row['A_dB']):>10.2f}{float(row['B']):>8.3f}"
                f"{float(row['rmse_dB']):>12.2f}"
            )
        top = read_csv_dicts(run_dir / "angles_full.csv")[-1]
        print(f"{'':<14}top-angle P_LoS = {float(top['p_los']):.4f}   ({run_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

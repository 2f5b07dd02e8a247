#!/usr/bin/env python3
"""urbanlos benchmark: the CLI workloads end to end, or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 3 --seconds 30 --trace 0

Each workload is a fixed sequence of CLI calls, run as a user would: every
call is its own fresh ``python -m urbanlos.cli`` process, one after
another, with ``src/`` on PYTHONPATH and BLAS thread counts pinned to 1.

A run first times set-up (interpreter start plus ``import urbanlos.cli``)
and runs the sequence once at DEFAULT_SEED, whose outputs must match the
hashes in ``golden.json`` byte for byte. It then repeats the sequence for
``--seconds`` seconds and reports medians over the repetitions. Every
repetition's outputs are checked: probabilities partition to 1, sample
counts per angle, the manifest's config against the flags passed, zero
oracle disagreements, and identical bytes wherever inputs repeat. A call
that exits nonzero or fails a check counts as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` each repetition is followed by a traced one with the
same inputs; traced calls run through ``traced_cli.py``, which records
spans around the public layer functions, and the per-layer metrics are
computed from those spans. ``layers.json`` says which end-to-end metric
each per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-golden`` runs the DEFAULT_SEED repetition of a workload and
records its output hashes in ``golden.json``; use it only when a change
deliberately alters the outputs, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_PROBES = 7  # timed set-up probes before the gate, after a warm-up; one more per repetition
MIN_REPS = 3
RUN_BUDGET_S = 150.0  # no repetition starts after this; exit stays under 180 s
PROB_TOL = 1e-12
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SCENARIOS = ["buildings-only", "trees", "full"]
WORKLOADS = {
    # the paper pipeline: simulate with the density sweep, then fit and report
    "paper-sweep": {
        "kind": "sweep",
        "env": "urban",
        "n_gu": 100,
        "n_cities": 6,
        "densities": [0, 100, 200, 400],
        "post": ["fit", "report"],
        "vary_seed": True,
    },
    # one city shape of the heavy acceptance sweep: many users, no densities
    "crowded-sweep": {
        "kind": "sweep",
        "env": "dense_urban",
        "n_gu": 1500,
        "n_cities": 3,
        "densities": None,
        "post": [],
        "vary_seed": True,
    },
    # single-link geometry against the rasterization oracle. Every
    # repetition reuses the run's seed. The 1 cm oracle misses a link that
    # dips under a roof for less than one step and then reports a
    # disagreement the exact classifier is right about (seed 101: link 146
    # of 300; seed 72012: link 123 of 150); such a seed fails every
    # repetition, and a seed per repetition would make most runs fail
    "oracle-audit": {
        "kind": "oracle",
        "env": "high_rise",
        "n_links": 300,
        "vary_seed": False,
    },
}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Content hash of src/, naming the code measured (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Call:
    name: str  # subcommand
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float
    spans: dict | None = None


@dataclass
class Rep:
    """One pass over a workload's CLI sequence."""

    seed: int
    traced: bool
    calls: list[Call] = field(default_factory=list)
    problems: dict[str, list[str]] = field(default_factory=dict)  # call name -> problems
    hashes: dict[str, str] = field(default_factory=dict)  # output file or layout_hash -> sha256
    samples: int = 0
    norm: float = 0.0  # wall / reference seconds around the repetition

    @property
    def wall(self) -> float:
        """Seconds in CLI processes; the harness's own bookkeeping is left out."""
        return sum(c.seconds for c in self.calls)

    def complain(self, call: str, message: str) -> None:
        self.problems.setdefault(call, []).append(message)


class Bench:
    def __init__(self, workload: str, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.n_children = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    # -- child processes -------------------------------------------------

    def spawn(self, cmd: list[str], env: dict, timeout: float) -> tuple[int, float, float, Path, Path]:
        """Run one child to completion; (exit code, seconds, max RSS MB, stdout, stderr)."""
        self.n_children += 1
        out = self.work / f"child{self.n_children}.out"
        err = self.work / f"child{self.n_children}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, out, err

    def cli(self, rep: Rep, args: list[str]) -> Call:
        env = self.env
        if rep.traced:
            spans_path = self.work / f"spans{self.n_children + 1}.json"
            env = dict(env, PERFBENCH_SPANS=str(spans_path))
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *args]
        else:
            cmd = [sys.executable, "-m", "urbanlos.cli", *args]
        self.attempted += 1
        code, seconds, rss, out, err = self.spawn(cmd, env, self.deadline - time.perf_counter())
        call = Call(args[0], code, out.read_text(), err.read_text(), seconds, rss)
        if rep.traced and spans_path.exists():
            call.spans = json.loads(spans_path.read_text())
        if code != 0:
            rep.complain(call.name, f"exit {code}: {call.stderr.strip()[-300:]}")
        rep.calls.append(call)
        return call

    def probe_setup(self) -> float | None:
        """Seconds for interpreter start plus `import urbanlos.cli`; None on failure."""
        self.attempted += 1
        cmd = [sys.executable, "-c", "import urbanlos.cli"]
        code, seconds, _, _, err = self.spawn(cmd, self.env, 60.0)
        if code == 0:
            return seconds
        self.failed += 1
        print(f"setup probe failed: {err.read_text()[-300:]}", file=sys.stderr)
        return None

    def reference_seconds(self) -> float:
        """Time of reference.py's fixed work mix, measured inside its own
        process: kept out of this one, whose peak RSS every child's
        ru_maxrss would otherwise include."""
        code, _, _, out, err = self.spawn([sys.executable, str(HERE / "reference.py")], self.env, 60.0)
        if code != 0:
            raise RuntimeError(f"reference.py failed: {err.read_text()[-300:]}")
        return float(out.read_text())

    # -- one repetition ----------------------------------------------------

    def run_rep(self, seed: int, traced: bool, tag: str, expected: dict | None = None) -> Rep:
        """One pass; `expected` holds the output hashes it must reproduce."""
        rep = Rep(seed=seed, traced=traced)
        out = self.work / tag
        try:
            if self.spec["kind"] == "sweep":
                self._sweep(rep, out)
            else:
                self._oracle(rep, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            if not rep.calls:
                raise
            rep.complain(rep.calls[-1].name, f"unreadable output: {exc!r}")
        self._check_identity(rep, expected)
        for call in rep.calls:
            if call.name in rep.problems:
                self.failed += 1
                for message in rep.problems[call.name]:
                    print(f"FAIL {self.name} seed {seed} {call.name}: {message}", file=sys.stderr)
        return rep

    def _sweep(self, rep: Rep, out: Path) -> None:
        s = self.spec
        args = [
            "simulate", "--env", s["env"], "--seed", str(rep.seed),
            "--n-cities", str(s["n_cities"]), "--n-gu", str(s["n_gu"]),
            "--scenario", ",".join(SCENARIOS), "--out", str(out),
        ]
        if s["densities"]:
            args += ["--densities", ",".join(map(str, s["densities"]))]
        call = self.cli(rep, args)
        if call.code != 0:
            return
        run_dir = Path(call.stdout.strip().splitlines()[-1])  # simulate prints its run dir
        for step in s["post"]:
            if self.cli(rep, [step, "--run", str(run_dir)]).code != 0:
                return
        self._check_sweep(rep, run_dir)

    def _oracle(self, rep: Rep, out: Path) -> None:
        s = self.spec
        dump = out.with_name(f"{out.name}-hits.json")
        call = self.cli(rep, [
            "oracle-check", "--env", s["env"], "--seed", str(rep.seed),
            "--n-links", str(s["n_links"]), "--dump-hits", str(dump),
        ])
        rep.samples = s["n_links"]
        m = re.match(r"(\d+) links, (\d+) disagreements", call.stdout)
        if not m:
            rep.complain("oracle-check", "no agreement summary printed")
        elif int(m[1]) != s["n_links"] or int(m[2]) != 0:
            rep.complain("oracle-check", call.stdout.strip().splitlines()[0])
        if call.code != 0:
            return
        if len(json.loads(dump.read_text())) != s["n_links"]:
            rep.complain("oracle-check", "hit dump does not hold one record per link")
        rep.hashes["hits.json"] = sha256(dump)

    # -- output checks -------------------------------------------------------

    def _check_sweep(self, rep: Rep, run_dir: Path) -> None:
        s = self.spec
        per_angle = s["n_cities"] * s["n_gu"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        config = manifest.get("config", {})
        got = {
            "kind": config.get("kind"),
            "environment": config.get("environment"),
            "seed": config.get("seed"),
            "scenarios": config.get("scenarios"),
            "densities": config.get("densities"),
            "n_gu": config.get("gen", {}).get("n_gu"),
            "n_cities": config.get("sweep", {}).get("n_cities"),
        }
        flags = {
            "kind": "simulate",
            "environment": s["env"],
            "seed": rep.seed,
            "scenarios": SCENARIOS,
            "densities": s["densities"],
            "n_gu": s["n_gu"],
            "n_cities": s["n_cities"],
        }
        for key, value in flags.items():
            if got[key] != value:
                rep.complain("simulate", f"manifest config {key}={got[key]!r}, flag was {value!r}")
        rep.hashes["layout_hash"] = manifest.get("layout_hash", "")
        rep.samples = int(manifest.get("n_samples", 0))

        expected = [f"angles_{n}.csv" for n in SCENARIOS] + [f"distance_{n}.csv" for n in SCENARIOS]
        expected.append(f"delta_{SCENARIOS[0]}_vs_{SCENARIOS[1]}.csv")
        expected += [f"density_{k}.csv" for k in s["densities"] or []]
        if "fit" in s["post"]:
            expected.append("fits.csv")
        if "report" in s["post"]:
            expected += [
                "report_plos_vs_distance.csv",
                "report_tree_nlos_vs_theta.csv",
                "report_pl_vs_theta.csv",
            ] + (["report_density.csv"] if s["densities"] else [])
        found = sorted(p.name for p in run_dir.glob("*.csv"))
        if found != sorted(expected):
            rep.complain("simulate", f"output files {found}, expected {sorted(expected)}")
        for name in found:
            rep.hashes[name] = sha256(run_dir / name)

        n_angles = 0
        for name in found:
            if not name.startswith(("angles_", "density_", "distance_")):
                continue
            rows = _read_csv(run_dir / name)
            for row in rows:
                total = sum(float(row[k]) for k in ("p_los", "p_nlos_b", "p_nlos_t", "p_nlos_s"))
                if abs(total - 1.0) > PROB_TOL:
                    rep.complain("simulate", f"{name}: probabilities sum to {total!r}")
                    break
            if name.startswith("distance_"):
                continue
            n_angles = len(rows)
            bad = [r["n"] for r in rows if int(r["n"]) != per_angle]
            if bad or not rows:
                rep.complain("simulate", f"{name}: n per angle {bad[:3]}, expected {per_angle}")
        for name in (n for n in found if n.startswith("distance_")):
            total_n = sum(int(r["n"]) for r in _read_csv(run_dir / name))
            if total_n != n_angles * per_angle:
                rep.complain("simulate", f"{name}: {total_n} samples, expected {n_angles * per_angle}")
        if "fits.csv" in found:
            fits = _read_csv(run_dir / "fits.csv")
            values = [float(r[k]) for r in fits for k in ("A_dB", "B", "rmse_dB")]
            if len(fits) != 2 or not all(map(math.isfinite, values)):
                rep.complain("fit", "fits.csv needs two finite rows")
        if "report_tree_nlos_vs_theta.csv" in found:
            rows = _read_csv(run_dir / "report_tree_nlos_vs_theta.csv")
            if any(int(r["n"]) != per_angle for r in rows):
                rep.complain("report", "report_tree_nlos_vs_theta.csv: wrong n per angle")

    def _check_identity(self, rep: Rep, expected: dict | None) -> None:
        if expected is None or not rep.hashes:
            return
        for key in sorted(set(expected) | set(rep.hashes)):
            if expected.get(key) != rep.hashes.get(key):
                rep.complain(_producer(key), f"{key} is not byte-identical to the expected output")

    # -- the measured loop ---------------------------------------------------

    def measure(self, seed: int, seconds: float, trace: bool):
        """Set-up probes and the gate repetition, then (set-up probe,
        repetition) until `seconds` have passed. Repetition k uses master
        seed 1000 * seed + k, so one run averages over many cities, or
        `seed` itself when the workload does not vary it; repetitions with
        one seed must give identical bytes."""
        golden = json.loads(GOLDEN.read_text())[self.name]
        setup = [self.probe_setup() for _ in range(SETUP_PROBES + 1)][1:]
        gate = self.run_rep(DEFAULT_SEED, traced=False, tag="gate", expected=golden)
        ref_before = self.reference_seconds()
        untraced: list[Rep] = []
        traced: list[Rep] = []
        start = time.perf_counter()
        longest = gate.wall * (2 if trace else 1)
        while len(untraced) < MIN_REPS or time.perf_counter() - start < seconds:
            if self.deadline - time.perf_counter() < 1.5 * longest + 5.0:
                break
            t0 = time.perf_counter()
            k = len(untraced)
            setup.append(self.probe_setup())
            if self.spec["vary_seed"]:
                rep = self.run_rep(1000 * seed + k, traced=False, tag=f"u{k}")
            else:
                rep = self.run_rep(seed, traced=False, tag=f"u{k}",
                                   expected=untraced[0].hashes if untraced else None)
            ref_after = self.reference_seconds()
            rep.norm = rep.wall / ((ref_before + ref_after) / 2.0)
            ref_before = ref_after
            untraced.append(rep)
            if trace:  # same inputs; tracing must not change a byte
                traced.append(self.run_rep(rep.seed, traced=True, tag=f"t{k}", expected=rep.hashes))
            longest = max(longest, time.perf_counter() - t0)
        return [t for t in setup if t is not None], untraced, traced


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _producer(key: str) -> str:
    if key == "fits.csv":
        return "fit"
    if key.startswith("report_"):
        return "report"
    if key == "hits.json":
        return "oracle-check"
    return "simulate"


# -- metrics -------------------------------------------------------------------


def good(reps: list[Rep]) -> list[Rep]:
    return [r for r in reps if not r.problems]


def end_to_end(setup: list[float], reps: list[Rep]) -> dict[str, tuple[float, str, list[float]]]:
    """(value, unit, samples) per metric. wall_s and samples_per_s are
    printed but not gated: on a shared 2-core virtual machine their run
    medians spread by more than any bound BENCHMARK.json may set."""
    ok = good(reps)
    walls = [r.wall for r in ok]
    norms = [r.norm for r in ok]
    rates = [r.samples / r.wall for r in ok]
    rss = [c.rss_mb for r in reps for c in r.calls]
    return {
        "wall_norm": (statistics.median(norms), "ratio", norms),
        "wall_s": (statistics.median(walls), "s", walls),
        "samples_per_s": (statistics.median(rates), "1/s", rates),
        "setup_s": (statistics.median(setup), "s", setup),
        "peak_rss_mb": (max(rss), "MB", rss),
    }


def layer_totals(rep: Rep) -> tuple[Counter, Counter, Counter]:
    """Self seconds and calls per span name, and counters, summed over a rep."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for call in rep.calls:
        doc = call.spans
        if doc is None:
            continue
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        for key, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (key, parent, start, end), inner in zip(spans, child_ns):
            self_s[names[key]] += (end - start - inner) / 1e9
            calls[names[key]] += 1
        counts.update(doc["counts"])
    return self_s, calls, counts


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def rep_layers(rep: Rep, setup_s: float) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    self_s, calls, counts = layer_totals(rep)
    values = {f"{name}.self_s": v for name, v in self_s.items()}
    values.update({f"{name}.calls": float(v) for name, v in calls.items()})
    values["citygen.place_buildings.accept_ratio"] = _ratio(
        counts["citygen.buildings_placed"], counts["citygen.derive_building_dims"])
    values["citygen.open_point.accept_ratio"] = _ratio(
        counts["citygen.open_points"], counts["citygen.FootprintIndex.blocked"])
    values["geometry.tree_candidates_per_link"] = _ratio(
        counts["geometry.tree_candidates"], counts["geometry.kernel_links"])
    values["outputs.bytes_written"] = float(counts["outputs.bytes_written"])
    values["trace.wall_s"] = rep.wall
    # share of the traced wall, less one interpreter set-up per call, that spans cover
    values["trace.accounted_share"] = _ratio(
        sum(self_s.values()), rep.wall - len(rep.calls) * setup_s)
    return values


def per_layer(names: list[str], setup: list[float], untraced: list[Rep], traced: list[Rep]) -> dict:
    """Medians over traced repetitions; a layer the workload never enters reads 0."""
    setup_s = statistics.median(setup)
    reps = [rep_layers(r, setup_s) for r in good(traced)]
    out = {name: statistics.median(r.get(name, 0.0) for r in reps) for name in names}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r.wall for r in good(untraced))
    return out


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the DEFAULT_SEED output hashes in golden.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "urbanlos" / "cli.py").is_file():
        print(f"error: no urbanlos sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, work)
    try:
        if args.write_golden:
            rep = bench.run_rep(DEFAULT_SEED, traced=False, tag="golden")
            if rep.problems:
                return 1
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
            golden[args.workload] = rep.hashes
            GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
            print(f"recorded {len(rep.hashes)} hashes for {args.workload} in {GOLDEN.name}")
            return 0
        setup, untraced, traced = bench.measure(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(untraced),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }))
    metrics = {}
    if not good(untraced) or (args.trace and not good(traced)):
        print("error: no repetition passed its checks", file=sys.stderr)
    elif args.trace:
        values = per_layer([m["name"] for m in spec["per_layer"]], setup, untraced, traced)
        missing = {n for r in traced for c in r.calls if c.spans for n in c.spans["missing"]}
        if missing:  # renamed or removed in src/: these layers read 0
            print("not traced: " + ", ".join(sorted(missing)))
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        values = end_to_end(setup, untraced)
        for name, (value, unit, samples) in values.items():
            q1, _, q3 = quartiles(samples)
            print(f"{name} = {value:.6g} {unit}  (n={len(samples)}, q1={q1:.6g}, q3={q3:.6g}; "
                  + " ".join(f"{v:.4g}" for v in samples) + ")")
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
    print(f"error_rate = {bench.failed / max(bench.attempted, 1):.6g}  "
          f"({bench.failed} failed of {bench.attempted} calls)")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

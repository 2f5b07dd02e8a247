"""Run one urbanlos CLI call with spans around its public layer functions.

Usage: python perfbench/traced_cli.py <urbanlos cli arguments...>

The spans are installed from here, outside the program: every function in
SPANNED is replaced by a wrapper in each loaded ``urbanlos`` module that
binds it (``montecarlo`` and ``cli`` import ``generate_city`` and friends
with ``from ... import``), and the functions in COUNTED only count calls.
Spans (name, parent, start, end) stay in memory and are written as JSON to
the file named by the PERFBENCH_SPANS environment variable when the call
ends. The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

from urbanlos import citygen, cli, geometry, montecarlo, oracle, outputs, pathloss

# (span name, owner object, attribute); the span name is <module>.<function>
SPANNED = [
    ("cli.main", cli, "main"),
    ("citygen.generate_city", citygen, "generate_city"),
    ("citygen.place_buildings", citygen, "place_buildings"),
    ("citygen.place_trees", citygen, "place_trees"),
    ("citygen.place_lights", citygen, "place_lights"),
    ("citygen.place_users", citygen, "place_users"),
    ("citygen.sample_open_point", citygen, "sample_open_point"),
    ("geometry.batch_critical_altitudes", geometry.LayoutGeometry, "batch_critical_altitudes"),
    ("geometry.classify", geometry.LayoutGeometry, "classify"),
    ("geometry.crossings", geometry.LayoutGeometry, "crossings"),
    ("montecarlo.run_scenarios", montecarlo, "run_scenarios"),
    ("montecarlo.tree_density_sweep", montecarlo, "tree_density_sweep"),
    ("pathloss.composite_bins", pathloss, "composite_bins"),
    ("pathloss.fit_ab", pathloss, "fit_ab"),
    ("pathloss.pl_vs_theta", pathloss, "pl_vs_theta"),
    ("outputs.layouts_hash", outputs, "layouts_hash"),
    ("outputs.write_csv", outputs, "write_csv"),
    ("oracle.classify_link_bruteforce", oracle, "classify_link_bruteforce"),
]

# attempts behind the accept ratios: counted, not timed
COUNTED = [
    ("citygen.derive_building_dims", citygen, "derive_building_dims"),
    ("citygen.FootprintIndex.blocked", citygen.FootprintIndex, "blocked"),
]


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent span, start ns, end ns]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def spanned(self, name: str, fn, on_return=None):
        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # per-function outcome counters, taken from arguments and results
    def _buildings(self, args, kwargs, result):
        self.counts["citygen.buildings_placed"] += len(result)

    def _open_point(self, args, kwargs, result):
        self.counts["citygen.open_points"] += 1

    def _kernel(self, args, kwargs, result):
        alt_building, _, tree_link = result[:3]
        self.counts["geometry.kernel_links"] += len(alt_building)
        self.counts["geometry.tree_candidates"] += len(tree_link)

    def _csv(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["outputs.bytes_written"] += os.path.getsize(path)

    def install(self) -> None:
        hooks = {
            "citygen.place_buildings": self._buildings,
            "citygen.sample_open_point": self._open_point,
            "geometry.batch_critical_altitudes": self._kernel,
            "outputs.write_csv": self._csv,
        }
        for name, owner, attr in SPANNED:
            self._patch(name, owner, attr, lambda fn: self.spanned(name, fn, hooks.get(name)))
        for name, owner, attr in COUNTED:
            self._patch(name, owner, attr, lambda fn: self.counted(name, fn))

    def _patch(self, name: str, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:  # renamed or removed: its metrics read 0
            self.missing.append(name)
            return
        wrapper = make_wrapper(original)
        setattr(owner, attr, wrapper)
        # rebind every `from ... import` copy in the package
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("urbanlos") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main() -> int:
    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        recorder.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())

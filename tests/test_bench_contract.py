"""The benchmark's gate repetition on every workload: the CLI's outputs,
file set, stdout lines and bytes as perfbench/run.py checks them. A change
that breaks this contract leaves the benchmark with nothing to measure."""

import importlib.util
import json
import signal
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture
def alarm():
    """run.py times each child out through SIGALRM."""
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_repetition_passes(workload, tmp_path, alarm):
    golden = json.loads(run.GOLDEN.read_text())[workload]
    bench = run.Bench(workload, tmp_path)
    rep = bench.run_rep(run.DEFAULT_SEED, traced=False, tag="gate", expected=golden)
    assert rep.problems == {}

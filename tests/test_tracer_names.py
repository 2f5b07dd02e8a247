"""The perfbench tracer wraps program functions by name; a renamed or
removed one would only make its metrics read 0, so check they resolve."""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_traced_names_are_callable():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines the tables; installs no wrapper
    pairs = traced.SPANNED + traced.COUNTED
    assert pairs
    missing = [name for name, owner, attr in pairs if not callable(getattr(owner, attr, None))]
    assert not missing

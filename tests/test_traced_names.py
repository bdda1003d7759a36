"""The benchmark's tracer (perfbench/tracing.py) wraps every function named
in its TRACED table by looking it up in the package, so renaming or
removing one of them breaks traced benchmark runs.  This catches that in
the test suite."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = [
        f"stepargmin.{layer}.{name}"
        for layer, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"stepargmin.{layer}"), name, None))
    ]
    assert missing == []

"""The benchmark's workloads (perfbench/workloads.py) call the package
through module attributes such as ``cpoisson.sample_extreme_minimizers``.
Removing or renaming one of them breaks the benchmark, and nothing else in
the test suite runs those workloads, so this reads the attributes from the
file's syntax tree and checks that each one still resolves."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("argmin", "cli", "cpoisson", "experiments", "stepfit", "stepfun")


def _attributes_read():
    """Every (module, attribute) the workloads file reads off a package
    module it names."""
    tree = ast.parse(WORKLOADS.read_text())
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }


def test_every_workload_attribute_resolves():
    read = _attributes_read()
    assert {module for module, _ in read} == set(MODULES)
    missing = sorted(
        f"stepargmin.{module}.{attr}"
        for module, attr in read
        if not hasattr(importlib.import_module(f"stepargmin.{module}"), attr)
    )
    assert missing == []

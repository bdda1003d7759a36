"""Smoke test of the benchmark: every workload and its traced run at tiny
size, plus the refusal to run without the package sources.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    for workload in SPEC["workloads"]:
        assert f"{workload['name']} seed=1 untraced" in out
        assert f"{workload['name']} seed=1 traced" in out
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} " in out
    assert "fail_frac = 0 " in out
    assert out.rstrip().endswith("smoke: all outputs correct")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "limit_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of the stepargmin package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads: limit_mc, verify_k2, coverage_w2, argmin_grid (see README.md).
Each run starts fresh processes: SETUP_SAMPLES that only set the workload
up, for the median ``setup_s``, then one that also runs the closed loop for
``--seconds``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it print every metric by name with its unit, the failure
fraction and the workload's findings.

``--smoke`` runs every workload and its traced run at a tiny size and exits
0 only if every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("limit_mc", "verify_k2", "coverage_w2", "argmin_grid")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _client(args, deadline):
    """Runs client.py in its own session and returns its JSON result.  The
    client's glibc mmap threshold is pinned at its default, 128 KiB:
    otherwise glibc raises it after the first large free, and where the
    k=2 fit's m-by-m arrays then land on the heap changes their speed by
    up to 25% from one process to the next."""
    cmd = [sys.executable, str(HERE / "client.py"), *args, "--spawned-at", repr(time.monotonic())]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        MALLOC_MMAP_THRESHOLD_="131072",
    )
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"client {' '.join(args)} ran past the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"client {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def run_workload(name, seed, seconds, trace, size, deadline):
    """One benchmark run; returns (result object, human-readable lines)."""
    spec = _spec()
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_client(common + ["--setup-only"], deadline)["setup_s"])
    main = _client(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(main["setup_s"])
    raw = dict(main["metrics"], setup_s=statistics.median(setups))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    lines = [f"{name} seed={seed} {'traced' if trace else 'untraced'}: {main['ops']} operations"]
    for key, m in metrics.items():
        label = key
        if key == "work_per_s":
            label = f"{key} ({main['throughput']})"
        lines.append(f"  {label} = {m['value']:.6g} {m['unit']}")
    if not trace:
        lines.append(f"  wall_s as measured = {raw['raw_wall_s']:.6g} s")
    lines.append(f"  fail_frac = {main['failed'] / main['attempted']:.6g} (of {main['attempted']})")
    if trace:
        shares = {
            k[: -len(".self_s")]: v for k, v in raw.items() if k.endswith(".self_s")
        }
        shares["unattributed"] = raw["trace.unattributed_s"]
        wall = raw["trace.wall_s"]
        lines.append(
            "  self-time shares: "
            + ", ".join(f"{k} {100.0 * v / wall:.1f}%" for k, v in shares.items())
        )
    lines += [f"  {line}" for line in main["findings"]]
    return result, lines


def smoke():
    deadline = time.monotonic() + DEADLINE_S
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result, lines = run_workload(name, 1, 0, trace, "smoke", deadline)
            print("\n".join(lines))
            ok = ok and result["correct"]
    print("smoke: " + ("all outputs correct" if ok else "FAILED"))
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stepargmin" / "__init__.py").is_file():
        print(f"error: no stepargmin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        deadline = time.monotonic() + DEADLINE_S
        result, lines = run_workload(
            args.workload, args.seed, args.seconds, args.trace, "full", deadline
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

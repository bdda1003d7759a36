"""One benchmark process: set up one workload, run its closed loop for the
given number of seconds, check every output, and print one JSON line.

    python3 perfbench/client.py --workload NAME --seed N --seconds S
        --spawned-at T [--trace 0|1] [--size full|smoke] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from process start to the first
timed call.  It is meant to be started by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Loop:
    """Closed loop over a workload's operations with per-operation timing."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def call(self, i, workers=None, tracer=None, sample=True):
        """Runs operation i once, timed, with the reference kernel timed
        around it and, with ``sample`` and one worker, during it; returns
        (wall seconds, cpu seconds, speed factor)."""
        workers = workers or self.workload.workers
        if tracer is not None:
            tracer.install()
        error = None
        with reference.SpeedSampler(during=sample and workers == 1) as sampler:
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                out = self.workload.op(i, workers)
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0 - sampler.paused_s
            cpu = _cpu_seconds() - c0 - sampler.paused_s
        if tracer is not None:
            tracer.uninstall()
        problems = [error] if error else self.workload.check(i, out)
        self.record(f"operation {i}", problems)
        return wall, cpu, sampler.factor

    def final_check(self):
        problems = self.workload.finish()
        if problems is not None:
            self.record("final check", problems)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{self.workload.name} {what} failed:", *problems[:5], sep="\n  ", file=sys.stderr)


def run_timed(workload, seconds):
    """Times are in nominal seconds (see reference.py); the raw_ entries
    are as measured."""
    loop = Loop(workload)
    walls, cpus, raw = [], [], []
    start = time.monotonic()
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        wall, cpu, factor = loop.call(i)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        raw.append(wall)
        i += 1
    peak = _peak_rss_mb()
    loop.final_check()
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
        "work_per_s": workload.items_per_op / statistics.median(walls),
        "raw_wall_s": statistics.median(raw),
    }
    return loop, metrics, len(walls)


def run_traced(workload, seconds, trace_path):
    """Alternates untraced and traced runs of the same operation.  Layer
    metrics come from one-worker operations; a workload that runs a pool
    also gets one traced pool operation per round, for the parent-side rng
    metrics, since spans inside pool workers are not collected."""
    from tracing import Tracer, layer_metrics

    loop = Loop(workload)
    tracer = Tracer()
    pool_tracer = Tracer() if workload.workers > 1 else None
    traced, pooled = [], []
    start = time.monotonic()
    i = 0
    ratios = []
    while i == 0 or time.monotonic() - start < seconds:
        wall, _, factor = loop.call(i, workers=1, sample=False)
        traced_wall, _, traced_factor = loop.call(i, workers=1, tracer=tracer, sample=False)
        traced.append(traced_wall)
        ratios.append(traced_wall * traced_factor / (wall * factor))
        if pool_tracer is not None:
            pooled.append(loop.call(i, tracer=pool_tracer, sample=False)[0])
        i += 1
    loop.final_check()
    metrics = layer_metrics(tracer, len(traced), sum(traced))
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    if pool_tracer is not None:
        pool = layer_metrics(pool_tracer, len(pooled), sum(pooled))
        for key in ("rng.pool_starts", "rng.run_chunks_wait_s"):
            metrics[key] = pool[key]
    tracer.save(trace_path)
    return loop, metrics, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import stepargmin

    if Path(stepargmin.__file__).resolve().parent != SRC / "stepargmin":
        print(f"error: imported stepargmin from {stepargmin.__file__}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            workdir, args.seed, workloads.SIZES[args.size]
        )
        setup_s = time.monotonic() - args.spawned_at
        # set-up is short: one kernel timing right after it gives its speed
        result = {"setup_s": setup_s * reference.NOMINAL_S / reference.kernel_seconds()}
        if not args.setup_only:
            if args.trace:
                trace_path = WORK / "traces" / f"{args.workload}-{args.seed}.npz"
                loop, metrics, ops = run_traced(workload, args.seconds, trace_path)
            else:
                loop, metrics, ops = run_timed(workload, args.seconds)
            result.update(
                attempted=loop.attempted,
                failed=loop.failed,
                ops=ops,
                metrics=metrics,
                throughput=workload.throughput,
                findings=workload.findings(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

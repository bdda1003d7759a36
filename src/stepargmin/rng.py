"""Deterministic substream seeding and order-preserving parallel evaluation.

All randomness in the package flows from integer master seeds through
``substream``/``child_seed``, indexed by a path.  Both Monte Carlo sides
draw a whole block of replications from one path, and ``run_chunks`` is
their one loop over blocks: the limit blocks of ``cpoisson`` and the data
blocks of ``experiments._fit_block``.  It takes every independent job of a
run at once, so a run starts at most one process pool, and each pool task
sends back its blocks as one array.  A path always yields the same stream
no matter which worker runs it, so results are independent of worker count.

``ProcessPoolExecutor`` is a lazy module attribute: ``concurrent.futures``
and ``multiprocessing`` are imported when a pool first starts, not with the
package.  ``run_chunks`` reads the attribute off the module, so a class
set in its place (``monkeypatch.setattr``, a counting subclass) is the one
that runs.
"""

from __future__ import annotations

import os
import sys

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(master, path):
    return [int(master) & _MASK64] + [int(p) & _MASK64 for p in path]


def substream(master, *path):
    """Generator for the replication path (master, *path)."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(master, path)))


def child_seed(master, *path):
    """64-bit integer seed derived from (master, *path)."""
    seq = np.random.SeedSequence(_entropy(master, path))
    return int(seq.generate_state(1, np.uint64)[0])


def __getattr__(name):
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_blocks(worker, args, first, counts):
    """worker(args, first + i, count) for the i-th count, concatenated."""
    return np.concatenate([worker(args, first + i, c) for i, c in enumerate(counts)])


def run_chunks(jobs, workers):
    """One array per job of ``jobs``, in job order.  A job is a tuple
    (worker, args, n_items, block): items 0..n_items-1 in blocks of
    ``block``, worker(args, b, count) for each block b in order, where
    count is ``block`` except for a last block that n_items cuts, with the
    numpy arrays it returns concatenated along their first axis.  Item i
    is row i % block of block i // block.

    Every job shares one pool of at most min(workers, blocks of all jobs,
    CPUs) processes, which is started only when that is more than one.
    Each job's blocks are cut into about four tasks per worker, every task
    of every job is submitted before any is waited on, and a task returns
    its blocks joined into one array.  Results are awaited in submission
    order; the first task found to have raised has its exception re-raised
    unchanged, after the tasks still queued are cancelled.  Workers must be
    module-level functions when the pool runs (pickling).
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    plans = []
    for worker, args, n_items, block in jobs:
        counts = [min(block, n_items - b * block) for b in range(-(-n_items // block))]
        plans.append((worker, args, counts))
    pool_size = min(workers, sum(len(counts) for *_, counts in plans), os.cpu_count() or 1)
    if pool_size <= 1:
        return [_run_blocks(worker, args, 0, counts) for worker, args, counts in plans]
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=pool_size) as pool:
        tasks = []
        for worker, args, counts in plans:
            size = -(-len(counts) // (4 * workers))
            tasks.append(
                [
                    pool.submit(_run_blocks, worker, args, lo, counts[lo : lo + size])
                    for lo in range(0, len(counts), size)
                ]
            )
        try:
            return [np.concatenate([task.result() for task in job]) for job in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

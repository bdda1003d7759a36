"""Deterministic substream seeding and order-preserving parallel evaluation.

All randomness in the package flows from integer master seeds through
``substream``/``child_seed``, indexed by a path.  Both Monte Carlo sides
draw a whole block of replications from one path, and ``run_chunks`` is
their one loop over blocks: the limit blocks of ``cpoisson`` and the data
blocks of ``experiments._fit_block``.  A path always yields the same stream
no matter which worker runs it, so results are independent of worker count.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor

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


def run_chunks(worker, args, n_items, workers, block):
    """Items 0..n_items-1 in blocks of ``block``: worker(args, b, count) for
    each block b in order, where count is ``block`` except for a last block
    that n_items cuts, with the numpy arrays it returns concatenated along
    their first axis.  Item i is row i % block of block i // block.

    ``worker`` must be a module-level function when workers > 1 (pickling).
    The pool holds at most min(workers, blocks, CPUs) processes, and each
    of its tasks runs about a quarter of a worker's share of the blocks.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_blocks = -(-n_items // block)
    counts = [min(block, n_items - b * block) for b in range(n_blocks)]
    pool_size = min(workers, n_blocks, os.cpu_count() or 1)
    if pool_size <= 1:
        return np.concatenate([worker(args, b, count) for b, count in enumerate(counts)])
    task = functools.partial(worker, args)
    chunksize = -(-n_blocks // (4 * workers))
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return np.concatenate(list(pool.map(task, range(n_blocks), counts, chunksize=chunksize)))

"""Deterministic substream seeding and order-preserving parallel evaluation.

All randomness in the package flows from integer master seeds through
``substream``/``child_seed``, indexed by a path.  Both Monte Carlo sides
draw a whole block of replications from one path: the limit blocks of
``cpoisson`` and the data blocks of ``experiments._fit_blocks``.  A path
always yields the same stream no matter which worker runs it, so results
are independent of worker count.
"""

from __future__ import annotations

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


def _call_chunk(payload):
    worker, args, lo, hi = payload
    return worker(args, lo, hi)


def run_chunks(worker, args, n_items, workers=1, block=1):
    """Evaluate worker(args, lo, hi) over [0, n_items) and concatenate the
    numpy arrays it returns, in order, along their first axis.

    ``worker`` must be a module-level function when workers > 1 (pickling).
    Chunk edges fall on multiples of ``block``.  The chunk split depends on
    ``workers`` but per-item results do not.  The pool holds at most
    min(workers, chunks, CPUs) processes.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n_blocks = -(-n_items // block)
    n_chunks = min(n_blocks, workers * 4)
    pool_size = min(workers, n_chunks, os.cpu_count() or 1)
    if pool_size <= 1:
        return worker(args, 0, n_items)
    edges = np.linspace(0, n_blocks, n_chunks + 1).astype(int) * block
    edges[-1] = n_items
    payloads = [(worker, args, int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return np.concatenate(list(pool.map(_call_chunk, payloads)))

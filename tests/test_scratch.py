"""The data-side block kernels' scratch arrays (stepargmin._scratch): a
run of blocks allocates no large array per block, and scratch never shows
up in a result.  The limit side allocates fresh arrays per block, within a
bound on a block's peak memory."""

import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stepargmin
from stepargmin import _scratch, cpoisson, experiments
from stepargmin.argmin import argmin_set
from stepargmin.cpoisson import CompoundPoissonSpec, JumpLaw, sample_extreme_minimizers
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfit import NoiseLaw, XLaw, draw_rows, fit_rows, pure_step_model
from stepargmin.stepfun import GridFunction, StepFunction1D

LARGE = 32 * 1024
PACKAGE = str(Path(stepargmin.__file__).parent)

UNIFORM01 = XLaw("uniform", (0.0, 1.0))
NOISE = NoiseLaw("gaussian", (0.0, 0.25))
MODELS = {
    1: pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISE),
    2: pure_step_model((1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NOISE),
}
TWO_POINT = JumpLaw("two_point", (-3.0, 5.0, 0.5))
TWO_POINT_SPEC = CompoundPoissonSpec(1.0, 1.0, TWO_POINT, TWO_POINT)


def large_allocations(fn, *args):
    """fn(*args) and the number of its steps that allocated at least LARGE
    bytes.  A step runs from one trace event (call, line or return) of a
    stepargmin frame to the next, and counts once when the memory that
    tracemalloc traces peaked at least LARGE above its level at the step's
    start; what numpy allocates counts toward the step that called it."""
    count = 0

    def close_step():
        nonlocal count, level
        count += tracemalloc.get_traced_memory()[1] - level >= LARGE
        tracemalloc.reset_peak()
        level = tracemalloc.get_traced_memory()[0]

    def step(frame, event, arg):
        close_step()
        return step

    def enter(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return step(frame, event, arg)
        return None

    old = sys.gettrace()
    tracemalloc.start()
    level = tracemalloc.get_traced_memory()[0]
    sys.settrace(enter)
    try:
        result = fn(*args)
    finally:
        sys.settrace(old)
        close_step()
        tracemalloc.stop()
    return result, count


def chunk_allocations(worker, args, block, blocks):
    """Large allocations of a one-worker run of `blocks` whole blocks
    through worker, not counting the run's result array itself."""
    result, count = large_allocations(run_chunks, [(worker, args, blocks * block, block)], 1)
    result = result[0]
    assert len(result) == blocks * block
    return count - (result.nbytes >= LARGE)


def warm_counts(worker, args, block, few, many):
    """Large allocations of runs of `many` and `few` blocks, after one
    traced run of `many` has sized the scratch arrays and paid the
    tracing's own one-time costs."""
    chunk_allocations(worker, args, block, many)
    return (
        chunk_allocations(worker, args, block, many),
        chunk_allocations(worker, args, block, few),
    )


@pytest.mark.parametrize("k, n", [(1, 500), (2, 100), (2, 300)])
def test_fit_chunk_allocations_do_not_grow(k, n):
    args = (MODELS[k], k, n, 20261019, (1, n))
    many, few = warm_counts(experiments._fit_worker, args, experiments._block_rows(n), 2, 20)
    assert many <= few


@pytest.mark.parametrize(
    "law, max_window",
    [(TWO_POINT, 64.0), (TWO_POINT, 1024.0), (JumpLaw("gaussian", (1.0, 0.5)), 64.0)],
    ids=["two_point-64", "two_point-1024", "gaussian-64"],
)
def test_limit_block_peak_is_a_few_edge_arrays(law, max_window):
    # the limit side allocates its block arrays fresh, but one block holds
    # no more than a few arrays the size of the cell edges that both sides'
    # first walk chunks would make at a time.  max_window is ignored: both
    # two_point cases draw the same
    spec = CompoundPoissonSpec(1.0, 1.0, law, law, max_window=max_window)
    block = cpoisson._BLOCK
    columns = max(1, math.ceil(cpoisson._FIRST * cpoisson._climb(law)))
    edges = block * (2 * columns + 2) * 8
    args = (spec, 7)
    # the first call also computes the law's Lundberg exponent
    cpoisson._predicate_worker(args, 0, block)
    tracemalloc.start()
    try:
        cells = cpoisson._predicate_worker(args, 0, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.shape[1] == 3 and np.unique(cells[:, 0]).size == block
    assert peak <= 8 * edges


def test_counter_sees_per_block_temporaries():
    # the membership worker's `_sections` still allocates (B, n) arrays per
    # block, and the count grows with the chunk
    args, block = (MODELS[1], 1, 500, 3), experiments._block_rows(500)
    many, few = warm_counts(experiments._membership_worker, args, block, 2, 20)
    assert many >= few + 18


def _scratch_buffers():
    return list(_scratch._buffers().values())


def assert_owned(*arrays):
    """No array shares memory with this thread's scratch buffers."""
    for a in arrays:
        assert not any(np.shares_memory(a, buf) for buf in _scratch_buffers())


def _rows(k, b, n, seed):
    return draw_rows(MODELS[k], substream(seed), (b, n))


class TestResultsOwnTheirMemory:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_rows(self, k):
        model_k = min(k, 2)
        first = fit_rows(*_rows(model_k, 16, 200, 1), k)
        kept = [a.copy() for a in first]
        fit_rows(*_rows(model_k, 40, 120, 2), k)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
        assert_owned(*first)

    def test_fit_worker(self):
        args = (MODELS[2], 2, 100, 5, (1, 100))
        first = run_chunks([(experiments._fit_worker, args, 200, experiments._block_rows(100))], 1)
        first = first[0]
        kept = first.copy()
        args = (MODELS[1], 1, 300, 6, (1, 300))
        run_chunks([(experiments._fit_worker, args, 100, experiments._block_rows(300))], 1)
        assert np.array_equal(first, kept)
        assert_owned(first)

    def test_sample_extreme_minimizers_two_point(self):
        first = sample_extreme_minimizers(TWO_POINT_SPEC, 1000, 20261019)
        kept = first.copy()
        # the same key answers from the kept sample, whose arrays are
        # read-only and never handed out: writes into one result do not
        # reach the next
        rows = cpoisson._kept[1]
        held = (rows.lo, rows.hi, rows.starts)
        assert not any(a.flags.writeable for a in held)
        first.xi_min[:] = first.xi_max[:] = 0.0
        again = sample_extreme_minimizers(TWO_POINT_SPEC, 1000, 20261019)
        assert cpoisson._kept[1] is rows
        assert np.array_equal(again, kept)
        assert not np.shares_memory(again, first)
        assert not any(np.shares_memory(r, a) for r in (first, again) for a in held)
        jumps = JumpLaw("gaussian", (1.0, 0.5))
        sample_extreme_minimizers(CompoundPoissonSpec(2.0, 0.5, jumps, jumps), 300, 3)
        assert np.array_equal(again, kept)
        assert_owned(first, again)

    def test_argmin_set(self):
        first = argmin_set(StepFunction1D([-1.0, 0.0, 2.0], [3.0, 1.0, 1.0, 2.0]))
        text = first.to_text()
        argmin_set(StepFunction1D(np.arange(50.0), np.arange(51.0) % 7))
        argmin_set(GridFunction((np.array([0.0, 1.0]),), np.array([2.0, 0.0, 2.0])))
        assert first.to_text() == text == "[-1.0,2.0]\n"


def test_threads_reproduce_serial_fits():
    # more threads than cores fit different block shapes at once, switching
    # often; each fits on its own scratch, so each gets a serial fit's bits
    jobs = [
        (_rows(2, 27, 300, 11), 2),
        (_rows(1, 16, 500, 12), 1),
        (_rows(2, 81, 100, 13), 3),
        (_rows(1, 8, 1000, 14), 2),
    ]
    serial = [fit_rows(x, y, k) for (x, y), k in jobs]
    results = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs))

    def run(i):
        (x, y), k = jobs[i]
        barrier.wait()
        for _ in range(5):
            results[i].append(fit_rows(x, y, k))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for expected, got in zip(serial, results):
        assert len(got) == 5
        for fit in got:
            assert all(np.array_equal(a, b) for a, b in zip(fit, expected))


def test_cap_gives_fresh_arrays():
    small = _scratch.scratch("test.small", (8, 8))
    assert _scratch.scratch("test.small", (4, 4)).base is small.base
    big = (_scratch._CAP_BYTES // 8 + 1,)
    assert _scratch.scratch("test.big", big).base is None
    assert "test.big" not in _scratch._buffers()

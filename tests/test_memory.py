"""Memory of the block kernels: with the allocator policy of
stepargmin._alloc a warm run faults in few pages, a limit block's peak is a
few edge arrays, results own their memory, so later calls do not change
them, and `kernel` restores numpy's ufunc buffer size."""

import ctypes
import json
import math
import os
import resource
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stepargmin
from corpus import pure_step_model
from stepargmin import _alloc, cli, cpoisson, experiments
from stepargmin.argmin import argmin_set
from stepargmin.cpoisson import CompoundPoissonSpec, JumpLaw, sample_extreme_minimizers
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfit import NoiseLaw, XLaw, draw_rows, fit_rows
from stepargmin.stepfun import GridFunction, StepFunction1D

UNIFORM01 = XLaw("uniform", (0.0, 1.0))
NOISE = NoiseLaw("gaussian", (0.0, 0.25))
MODELS = {
    1: pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISE),
    2: pure_step_model((1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NOISE),
}
TWO_POINT = JumpLaw("two_point", (-3.0, 5.0, 0.5))
TWO_POINT_SPEC = CompoundPoissonSpec(1.0, 1.0, TWO_POINT, TWO_POINT)
# blocks of 1024 rows whose pages glibc's default trim threshold hands back
# after every block: 2 800 to 7 000 warm faults under six argv layouts
SHIFTED_EXP = JumpLaw("shifted_exp", (-0.5, 1.5))
SHIFTED_EXP_SPEC = CompoundPoissonSpec(1.0, 1.0, SHIFTED_EXP, SHIFTED_EXP)

# configs/verify_k2.cfg with a shorter menu
VERIFY_K2 = """\
master_seed = 20260818
k = 2
n_grid = 250, 1000
replications_data = 1000
replications_limit = 1000
rho = 0.1
model.tau = 0.3333333333333333, 0.6666666666666666
model.alpha = 0, 1, 0
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
set closed lower-both = [-inf,0] | [-inf,0]
set closed bands = [-3,3] | [-3,3]
set open win-both = (-4,4) | (-4,4)
"""


def warm_faults(run):
    """The minor page faults of this process during run(1), after run(0)
    has done the same work once."""
    run(0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def print_warm_faults(out, which, trim):
    """Prints the warm_faults of one kind of run as a JSON number: `verify`,
    a k=2 verify run written under the directory `out`, or `limit`, a
    32-block shifted_exp limit job.  A nonzero `trim` first sets glibc's trim
    threshold to that many bytes, undoing stepargmin._alloc's setting."""
    if trim:
        ctypes.CDLL(None).mallopt(_alloc._M_TRIM_THRESHOLD, trim)
    config = Path(out) / "verify_k2.cfg"
    config.write_text(VERIFY_K2)

    def verify(i):
        cli.run(["verify", "--config", str(config), "--out", f"{out}/v{i}"])

    def limit(i):
        rows = cpoisson._block_rows(SHIFTED_EXP_SPEC)
        run_chunks([cpoisson._limit_job(SHIFTED_EXP_SPEC, 7 + i, 32 * rows)], 1)

    print(json.dumps(warm_faults({"verify": verify, "limit": limit}[which])))


def child_warm_faults(out, which, trim=0):
    """print_warm_faults run in a child process that pins glibc's mmap
    threshold as the benchmark does; its count."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import test_memory; "
        "test_memory.print_warm_faults(sys.argv[3], sys.argv[4], int(sys.argv[5]))"
    )
    paths = (str(Path(stepargmin.__file__).parents[1]), str(Path(__file__).parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths, str(out), which, str(trim)],
        env=dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072"),
        capture_output=True,
        text=True,
        check=True,
    )
    if which == "verify":
        assert (Path(out) / "v1" / "DONE").is_file()
    return json.loads(proc.stdout.splitlines()[-1])


needs_mallopt = pytest.mark.skipif(not _alloc.TRIM_SET, reason="the C library has no mallopt")


@needs_mallopt
@pytest.mark.parametrize("which", ["verify", "limit"])
def test_warm_runs_fault_in_few_pages(tmp_path, which):
    # with the trim threshold raised, a block's freed temporaries stay in
    # the heap, and a second run of the same work faults in almost no new
    # pages.  The child pins glibc's mmap threshold as the benchmark does,
    # which stops glibc from raising the trim threshold itself
    assert child_warm_faults(tmp_path, which) < 1000


@needs_mallopt
@pytest.mark.parametrize("which", ["verify", "limit"])
def test_default_trim_threshold_faults_blocks_in_again(tmp_path, which):
    # the same runs at glibc's default trim threshold, 128 KB: each fresh
    # block faults its pages in again, so the bound above sees the setting.
    # The verify run faults more than 20 000 pages and the limit job 2 800
    # to 7 000 under argv layouts that differ by up to 9 000 bytes; a
    # two_point(-3, 5, 1/2) job read 2 to 2 000 with the argv alone changed
    assert child_warm_faults(tmp_path, which, trim=128 << 10) > 1000


def test_kernel_sets_and_restores_bufsize():
    @_alloc.kernel
    def inside(a):
        return np.getbufsize(), a

    before = np.getbufsize()
    assert inside(3) == (_alloc._UFUNC_BUFSIZE, 3)
    assert inside.__name__ == "inside"
    assert np.getbufsize() == before


def test_nested_kernels_restore_the_outer_size():
    @_alloc.kernel
    def inner():
        return np.getbufsize()

    @_alloc.kernel
    def outer():
        return inner(), np.getbufsize()

    before = np.getbufsize()
    assert outer() == (_alloc._UFUNC_BUFSIZE, _alloc._UFUNC_BUFSIZE)
    assert np.getbufsize() == before


def test_kernel_restores_bufsize_when_it_raises():
    @_alloc.kernel
    def fails():
        raise ValueError("inside")

    before = np.getbufsize()
    with pytest.raises(ValueError, match="inside"):
        fails()
    assert np.getbufsize() == before


@pytest.mark.parametrize(
    "law, max_window",
    [
        (TWO_POINT, 64.0),
        (TWO_POINT, 1024.0),
        (JumpLaw("gaussian", (1.0, 0.5)), 64.0),
        (JumpLaw("point", (1.0,)), 64.0),
    ],
    ids=["two_point-64", "two_point-1024", "gaussian-64", "point-64"],
)
def test_limit_block_peak_is_a_few_edge_arrays(law, max_window):
    # the limit side allocates its block arrays fresh, but one block of the
    # spec's own height holds no more than a few arrays the size of the
    # cell edges that both sides' first walk chunks would make at a time.
    # max_window is ignored: both two_point cases draw the same
    spec = CompoundPoissonSpec(1.0, 1.0, law, law, max_window=max_window)
    block = cpoisson._block_rows(spec)
    columns = max(1, math.ceil(cpoisson._FIRST * cpoisson._climb(law)))
    edges = block * (2 * columns + 2) * 8
    args = (spec, 7, block)
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

    def test_fit_worker(self):
        args = (MODELS[2], 2, 100, 5, (1, 100))
        first = run_chunks([(experiments._fit_worker, args, 200, experiments._block_rows(100))], 1)
        first = first[0]
        kept = first.copy()
        args = (MODELS[1], 1, 300, 6, (1, 300))
        run_chunks([(experiments._fit_worker, args, 100, experiments._block_rows(300))], 1)
        assert np.array_equal(first, kept)

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

    def test_argmin_set(self):
        first = argmin_set(StepFunction1D([-1.0, 0.0, 2.0], [3.0, 1.0, 1.0, 2.0]))
        text = first.to_text()
        argmin_set(StepFunction1D(np.arange(50.0), np.arange(51.0) % 7))
        argmin_set(GridFunction((np.array([0.0, 1.0]),), np.array([2.0, 0.0, 2.0])))
        assert first.to_text() == text == "[-1.0,2.0]\n"


def test_threads_reproduce_serial_fits():
    # more threads than cores fit different block shapes at once, switching
    # often; each gets a serial fit's bits
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

"""Fixed reference kernel that tracks the speed of a shared machine.

On a host whose CPU speed drifts with its neighbours' load, the same
operation can take 30% longer from one minute to the next, and the speed
changes within seconds.  The benchmark therefore times this kernel while
it measures: right before and after an operation, and, for an operation
that runs in one process, every SAMPLE_INTERVAL_S during it from a timer
signal.  It rescales the operation's times by NOMINAL_S over the mean
kernel time, so a reported time reads as seconds on a machine where the
kernel takes NOMINAL_S.  The kernel never calls the package: a change to
the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time (shortest of five runs) on the 2-core shared VM the baseline
# was recorded on (Python 3.11.7, numpy 2.4.6) at a quiet moment.
NOMINAL_S = 0.0030
SAMPLE_INTERVAL_S = 0.2


def _kernel():
    # small numpy calls and Python object work, alike in kind to the
    # package's inner loops, and whole-array arithmetic on a matrix the
    # size of a dynamic-program table
    rng = np.random.default_rng(20260808)
    table = rng.random((300, 300))
    acc = float(np.min(table - (table * table) / (table + 1.0), axis=1).sum())
    for _ in range(200):
        times = np.cumsum(rng.standard_exponential(64))
        j = int(np.searchsorted(times, 16.0))
        vals = np.concatenate([times[:j], [0.0]])
        boxes = [(float(a), float(a) + 1.0) for a in vals[:8]]
        acc += sum(hi - lo for lo, hi in boxes) + float(vals.min())
    return acc


def kernel_seconds(repeats=5):
    """Shortest time of the kernel over ``repeats`` back-to-back runs; the
    first run also warms the caches after other code ran."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


class SpeedSampler:
    """Times the kernel before, after, and (with ``during``) periodically
    while the ``with`` block runs.  ``paused_s`` is the time the periodic
    samples took out of the block, to be subtracted from its wall and CPU
    times.  Sampling during a block is only meaningful while the block
    runs in this one process: pool workers would slow the kernel down."""

    def __init__(self, during=True):
        self.during = during
        self.samples = []
        self.paused_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds(2))
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(kernel_seconds())
        if self.during:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel_seconds())
        return False

    @property
    def factor(self):
        """Nominal seconds per measured second over the block."""
        return NOMINAL_S / statistics.mean(self.samples)

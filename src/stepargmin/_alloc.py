"""The process's allocator policy, set once at import.

Both Monte Carlo sides work in blocks: a (B, n) data block of about 8192
cells, a chunk of the k >= 2 sweep, a block of 64 to 1024 rows of limit
walks whose first chunks stay under the mmap threshold.  Each block
allocates its temporaries fresh and frees them when it is done.  At
glibc's default trim threshold, 128 KB, freeing the top of the heap hands
those pages back to the system, and the next block faults them in again.
With the mmap threshold pinned at its default, which also pins the trim
threshold, a second `verify` run on a k = 2 config faulted in about
26 000 pages and a second 32-block shifted_exp(-0.5, 1.5) limit job 2 800
to 7 000.  Raising the trim threshold to TRIM_BYTES keeps the freed pages
in the heap for the next block: about 20 and at most 30 faults.  The
setting is process-wide and only glibc reads it; where the C library has
no ``mallopt`` the call is skipped.  It also stops glibc from raising
its mmap threshold after a large mmapped chunk is freed, so chunks at or
above that threshold are still mmapped and unmapped, and the heap keeps
at most its own peak.

``kernel`` shrinks numpy's ufunc buffers for the duration of a call.  At
numpy's default of 8192 elements, a ufunc whose operands cannot run as
one strided loop (a broadcast column, a column slice of a block) mallocs
and frees a 64 KB buffer per such operand.  At 1024 elements such a
buffer is at most 8 KB, or none; without it `verify_k2` read x0.92 (3
pairs) and x0.98 (5 more, all of them worse) in work per second (numpy
2.4).  No result depends on it: elementwise loops give the same values
in any chunks, and the kernels' float sums run over contiguous rows,
which numpy does not buffer (tests/test_golden.py pins the bits).
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# glibc's mallopt parameter M_TRIM_THRESHOLD (malloc.h)
_M_TRIM_THRESHOLD = -1
TRIM_BYTES = 256 << 20

_UFUNC_BUFSIZE = 1024


def _set_trim_threshold():
    """mallopt(M_TRIM_THRESHOLD, TRIM_BYTES); whether the C library took
    it, False where it has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and mallopt(_M_TRIM_THRESHOLD, TRIM_BYTES) == 1


TRIM_SET = _set_trim_threshold()


def kernel(fn):
    """fn run with numpy's ufunc buffers at _UFUNC_BUFSIZE elements; the
    previous size is restored on return."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        old = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            return fn(*args, **kwargs)
        finally:
            np.setbufsize(old)

    return run

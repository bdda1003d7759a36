"""Scratch arrays for the data-side block kernels, reused from block to
block.

The data side works in blocks of about 8192 cells: a (B, n) data block, a
chunk of the k >= 2 sweep.  A temporary of such a block is 64 KB or more.
When every block allocates and frees its temporaries, glibc trims the
freed top of the heap and the next block faults the same pages in again.
The kernels instead write their temporaries through numpy ``out=`` into
``scratch`` arrays: per thread, one buffer per name, which every later
request for that name reuses.  The limit side's 64-row blocks keep
their largest arrays, each side's first walk chunk and the block's cell
edges and values, in scratch too: fresh, they were freed at the top of
the heap, glibc trimmed it, and the next block faulted the pages in
again, 600 to 1200 minor faults per `limit_mc` benchmark operation with
glibc's mmap threshold pinned at its default.

Rules for a name:
- It belongs to one function, which does not run again while it holds
  the name.
- Its array is dead once the function returns.  It is never returned,
  except as the ``out`` array that the caller passed in, and a kernel
  that hands a scratch block on does so to a callback that returns fresh
  arrays.  The one exception is ``cpoisson._draw_block``, whose cell
  arrays are valid until the thread's next block draw; its callers read
  them at once, and none returns them.
- A request above ``_CAP_BYTES`` gets a fresh array, as before, so a
  large single fit keeps nothing.

``kernel`` also shrinks numpy's ufunc buffers for the duration of a call.
At numpy's default of 8192 elements, a ufunc whose operands cannot run as
one strided loop (a broadcast column, a column slice of a block) mallocs
and frees a 64 KB buffer per such operand, the same churn as a temporary
array.  At 1024 elements such a buffer is at most 8 KB, or none, which
malloc recycles, and those calls ran faster (numpy 2.4).  No result
depends on it: elementwise loops give the same values in any chunks, and
the kernels' float sums run over contiguous rows, which numpy does not
buffer (tests/test_golden.py pins the bits).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

# twice the 8192 cells of a data block (experiments._BLOCK_CELLS) and of a
# sweep chunk (stepfit._CHUNK_CELLS), in float64 bytes: room for the
# (B, n + 1) prefix sums of a block
_CAP_BYTES = 2 * 8192 * 8

_UFUNC_BUFSIZE = 1024

class _Buffers(threading.local):
    """Per thread, the byte buffers by name."""

    def __init__(self):
        self.by_name = {}


_local = _Buffers()


def _buffers():
    """This thread's buffers by name."""
    return _local.by_name


def scratch(name, shape, dtype=np.float64):
    """An array of `shape` and `dtype` with arbitrary contents, backed by
    this thread's buffer `name`: the same memory for every request of that
    name, grown when a request needs more.  Above _CAP_BYTES it is a fresh
    array."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > _CAP_BYTES:
        return np.empty(shape, dtype)
    buf = _local.by_name.get(name)
    if buf is None or buf.size < nbytes:
        buf = _local.by_name[name] = np.empty(nbytes, np.uint8)
    return np.ndarray(shape, dtype, buf)


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

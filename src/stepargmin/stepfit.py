"""Least-squares fitting of k-jump step functions, the rescaled local
criterion processes around a reference breakpoint vector, synthetic
regression data, and the plug-in limit-process parameters.

Fitted regression functions use left-closed segments: level a[0] on
x <= t[0], a[j] on (t[j-1], t[j]], a[k] on x > t[k-1].  Breakpoint
candidates are the distinct observed x values except the largest, which
keeps every segment nonempty and makes the minimizer exact over a finite
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from stepargmin._alloc import kernel
from stepargmin.cpoisson import CompoundPoissonSpec, InvalidSpecError, JumpLaw
from stepargmin.stepfun import StepFunction1D, _readonly
from stepargmin.textfmt import Law


class EmptySegmentError(ValueError):
    pass


class TooFewDistinctXError(ValueError):
    pass


class CollapsedOrderError(ValueError):
    """Raised when a reference breakpoint vector is not strictly increasing."""


class NonpositiveJumpMeanError(ValueError):
    """Raised when the induced limit jump law would not drift upward."""


class YRangeError(ValueError):
    """Raised when y is spread so widely that the fit's centred squares
    would overflow."""


class DatasetFormatError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def _check_spread(n, q):
    """Raise YRangeError unless 4n·q is finite for every entry of q, the
    sum of squares of n values of y minus their middle order statistic.
    The fit's prefix sums hold those squares, and a segment's squared
    total is at most n·q."""
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(4.0 * n * q)):
            raise YRangeError(
                "y spreads too widely: 4 n times the sum of squares of y minus its "
                "median overflows float64"
            )


@dataclass(frozen=True, eq=False)
class Dataset:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        y = _readonly(self.y)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be one-dimensional of equal length")
        if x.size < 2:
            raise ValueError("need at least two observations")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("observations must be finite")
        if np.all(x == x[0]):
            raise ValueError("x must not be constant")
        mid = y.size // 2
        with np.errstate(over="ignore"):
            yc = y - np.partition(y, mid)[mid]
            _check_spread(y.size, np.sum(yc * yc))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.x.size


@dataclass(frozen=True)
class StepModel:
    t: tuple
    a: tuple

    def __post_init__(self):
        t = tuple(float(v) for v in self.t)
        a = tuple(float(v) for v in self.a)
        if len(a) != len(t) + 1:
            raise ValueError("need one more level than breakpoints")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", a)

    @property
    def k(self):
        return len(self.t)

    def values_at(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.t), x, side="left")
        return np.asarray(self.a)[idx]


def sse(data, model):
    """Unnormalized squared loss: the sum over observations of the squared
    residual against the step model."""
    resid = data.y - model.values_at(data.x)
    return float(np.sum(resid * resid))


def optimal_levels(data, t):
    """Per-segment means of y, the exact inner least-squares minimizer for
    fixed breakpoints, summed as `fit_step` sums its levels."""
    t_arr = np.asarray(tuple(float(v) for v in t))
    if t_arr.size > 1 and not np.all(np.diff(t_arr) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    order = np.argsort(data.x, kind="stable")
    ends = np.searchsorted(data.x[order], t_arr, side="right")
    sizes = np.diff(ends, prepend=0, append=data.n)
    if not np.all(sizes):
        j = int(np.argmin(sizes))
        raise EmptySegmentError(f"segment {j + 1} contains no observations")
    return tuple(_levels_and_scales(data.y[order][None], ends[None])[0][0].tolist())


@dataclass(frozen=True)
class FitResult:
    tau: tuple
    alpha: tuple
    sse: float
    segment_counts: tuple
    sigma_hat: tuple

    def to_text(self):
        def join(vals):
            return ", ".join(repr(float(v)) for v in vals)

        lines = [
            f"tau = {join(self.tau)}",
            f"alpha = {join(self.alpha)}",
            f"sse = {float(self.sse)!r}",
            f"segment_counts = {', '.join(str(int(c)) for c in self.segment_counts)}",
            f"sigma_hat = {join(self.sigma_hat)}",
        ]
        return "\n".join(lines) + "\n"


def _prefix_sums(xs, ys, starts=None):
    """(vals, cum_n, cum_s, cum_q), the blocks that `_cuts` fits, of the
    (B, n) rows of x-sorted x and y.  The blocks are single observations
    when `starts` is None; otherwise B = 1, and they are the runs of tied
    x, which start at the positions `starts`.  vals (B, m) holds the
    blocks' x, cum_n (m+1,) the count of observations before each block
    and after the last, cum_s and cum_q (B, m+1) the prefix sums of y and
    y² over the blocks.  y is centred at each row's middle order statistic
    first: segment costs are translation-invariant, so the shift only
    removes the cancellation in sq - tot²/cnt that a large offset in y
    would cause, and integer y stays integer.  Raises YRangeError when the
    centred squares would overflow."""
    rows, n = ys.shape
    m = n if starts is None else starts.size
    cum_s, cum_q = np.empty((rows, m + 1)), np.empty((rows, m + 1))
    cum_s[:, 0] = cum_q[:, 0] = 0.0
    yc = ys.copy()
    yc.partition(n // 2, axis=1)
    middle = yc[:, n // 2].copy()

    def blocks(a):
        # per-block sums of a, which on single observations are a itself
        return a if starts is None else np.add.reduceat(a, starts, axis=1)

    with np.errstate(over="ignore"):
        np.subtract(ys, middle[:, None], out=yc)
        np.cumsum(blocks(yc), axis=1, out=cum_s[:, 1:])
        yc *= yc
        np.cumsum(blocks(yc), axis=1, out=cum_q[:, 1:])
    _check_spread(n, cum_q[:, -1])
    if starts is None:
        return xs, np.arange(n + 1), cum_s, cum_q
    return xs[:, starts], np.append(starts, n), cum_s, cum_q


# cells per chunk of the k >= 2 suffix sweep: 64 KB per float64
# temporary
_CHUNK_CELLS = 8192

# unit roundoff of float64
_UNIT = 2.0**-53


def _suffix_layer(nxt, cmax, cum_n, cum_s, cum_q, first, last):
    """out[s] = min over first[s] <= c <= last[s] of cost(s, c) + nxt[c + 1]
    for s <= cmax, and inf for s > cmax and for the dead rows, those with
    last[s] < first[s], which are never swept.  `first` is nondecreasing
    with first[s] >= s, and last[s] <= cmax; first[s] = s and last[s] = cmax
    sweep the whole triangle.  nxt, cum_s and cum_q may carry a leading
    axis of B datasets that share the block counts cum_n and the band; the
    layer is then taken per dataset.  Consecutive live rows r0..r1-1 are
    swept as one chunk against the columns first[r0]..max(last[r0..r1-1]),
    at most _CHUNK_CELLS cells (one row of every dataset when that alone is
    wider), so memory is O(B·m + _CHUNK_CELLS).  A chunk also takes the
    cells between a row's own band and the chunk's; they are segments of
    that row too, so its minimum can only come closer to the full sweep's.
    The costs are `_cost`'s, so every entry is bit-identical to what tie
    extraction recomputes.  Returns the layer in an array of nxt's
    shape."""
    out = np.full(nxt.shape, np.inf)
    lead = nxt.size // nxt.shape[-1]
    # runs start..stop-1 of consecutive live rows
    live = np.concatenate(([False], last >= first, [False]))
    edges = np.flatnonzero(live[1:] != live[:-1]).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for r1, stop in zip(edges[::2], edges[1::2]):
            while r1 < stop:
                r0, c0 = r1, int(first[r1])
                c1 = int(last[r0])
                # as many rows as fit at width c1 - c0 + 1, where c1 grows to
                # the farthest last column of them until they all end by it
                while True:
                    r1 = min(stop, r0 + max(1, _CHUNK_CELLS // (lead * (c1 + 1 - c0))))
                    widest = int(last[r0:r1].max())
                    if widest <= c1:
                        break
                    c1 = widest
                rows = slice(r0, r1)
                cols = slice(c0 + 1, widest + 2)
                cost = _cost(
                    cum_n[rows, None], cum_s[..., rows, None], cum_q[..., rows, None],
                    cum_n[None, cols], cum_s[..., None, cols], cum_q[..., None, cols],
                )
                cost += nxt[..., None, cols]
                out[..., rows] = cost.min(axis=-1)
    return out


def _levels_and_scales(ys, ends):
    """Per row of the (B, n) x-sorted y `ys`, in which segment j + 1 starts
    at position ends[:, j]: each segment's level, the mean of its y, and
    its plug-in scale sqrt(var / share), var the two-pass variance about
    that level.  Every mean is one `np.add.reduceat` per segment over the
    flattened block, which sums each segment pairwise as np.add.reduce
    sums it alone, so a row's bits do not depend on the rows around it
    and lie within a few rounding errors of np.mean and np.var.
    Differences of cumsum prefix sums would add sequentially and drift by
    tens of rounding errors over a long segment.  Returns
    (alpha, sigma_hat) as (B, k+1) arrays."""
    rows, n = ys.shape
    sizes = np.diff(ends, axis=1, prepend=0, append=n)
    # each segment's first position in the flattened block
    counts = sizes.ravel()
    starts = np.cumsum(counts) - counts
    alpha = np.add.reduceat(ys.ravel(), starts).reshape(sizes.shape) / sizes
    dev = ys - np.repeat(alpha.ravel(), counts).reshape(rows, n)
    dev *= dev
    var = np.add.reduceat(dev.ravel(), starts).reshape(sizes.shape) / sizes
    return alpha, np.sqrt(var / (sizes / n))


def fit_step(data, k):
    """Least-squares k-jump fit of one dataset: `fit_rows` on its one row,
    with the loss and the sizes of the left-closed segments.  The
    breakpoints minimize the total cost as the float program folds it, and
    ties between equal float totals go to the lexicographically smallest
    breakpoint vector.  Totals that tie in exact arithmetic can differ by
    rounding, so such a tie can go the other way (an open defect, ROADMAP
    item 3)."""
    tau, alpha, sigma = (tuple(a[0].tolist()) for a in fit_rows(data.x[None], data.y[None], k))
    counts = np.bincount(np.searchsorted(tau, data.x, side="left"), minlength=len(alpha))
    return FitResult(
        tau=tau,
        alpha=alpha,
        sse=sse(data, StepModel(tau, alpha)),
        segment_counts=tuple(counts.tolist()),
        sigma_hat=sigma,
    )


def _cuts(cum_n, cum_s, cum_q, k):
    """The optimal k-jump fit of every row of the (B, m+1) block prefix
    sums cum_s and cum_q, which share the block counts cum_n: per row, the
    index of the last block of each of the first k segments.

    suffix[j][:, s] is the optimal cost of covering blocks s.. with the
    last k+1-j segments, suffix[k] the single trailing segment's.  Each
    cut then takes the first minimum over its candidates, which puts ties
    toward the lexicographically smallest breakpoint vector among the
    float totals; every cost is `_cost`'s, so the candidates are
    bit-identical to what `_suffix_layer` compares.

    For k >= 2 the layers skip pairs that a bound rules out: row s of
    layer j is swept only over its band first(s)..last(s) (`_band`).  UB
    (`_upper_bound`) is the float total of one feasible cut vector, so it
    is at least the float optimum.  head_j(s) is the one-segment cost of
    blocks 0..s-1 for j = 1, the first cut's candidate costs, and 0 for
    deeper layers; row s's budget is UB + slack - head_j(s) (`_slack`).
    Before first(s), every pair (s, c) has suffix[j+1][c+1] above the
    budget in every dataset.  After last(s), the one column L = last(s) + 1
    has cost(s, L) + sufmin(L) above the budget in every dataset, where
    sufmin(L) is the least suffix[j+1][c+1] over c >= L; for a dead row,
    which stays inf, L = first(s).  An exact segment cost never falls when
    the segment grows (the inequality behind PELT's pruning), and a float
    cost is within δ of its exact value, so every pair (s, c) with c >= L
    has head_j(s) + cost(s, c) + suffix[j+1][c+1] above UB + slack - 2δ,
    less the rounding of one addition.  On the float optimum's path both
    sums lie below that (`_slack`), so a skipped pair is strictly above the
    float optimum: the suffix values on the optimum's path and the first
    minima are those of the full sweep, bit for bit.  A chosen total that
    is not finite or exceeds UB raises RuntimeError."""
    rows, m = cum_s.shape[0], cum_n.size - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        # suffix[k], the trailing segment's cost
        tail = _cost(cum_n[:m], cum_s[:, :m], cum_q[:, :m], cum_n[m], cum_s[:, m:], cum_q[:, m:])
        suffix = {k: tail}
        # head[:, c] is the cost of blocks 0..c: the first cut's candidates
        head = _start_costs(cum_n, cum_s, cum_q, np.zeros((rows, 1), dtype=np.int64), m - 2)
        if k >= 2:
            ub = _upper_bound(cum_n, cum_s, cum_q, k, head, tail)
            limit = ub + _slack(int(cum_n[m]), cum_q[:, m], k)
        for j in range(k - 1, 0, -1):
            cmax = m - 1 - (k - j)
            # limit - head_j(s): head_1(s) is the cost of blocks 0..s-1, and
            # there is no row 0
            budget = np.repeat(limit[:, None], cmax + 1, axis=1)
            if j == 1:
                budget[:, 0] = -np.inf
                budget[:, 1:] -= head[:, :cmax]
            first, last = _band(suffix[j + 1], cmax, cum_n, cum_s, cum_q, budget)
            suffix[j] = _suffix_layer(suffix[j + 1], cmax, cum_n, cum_s, cum_q, first, last)
        cuts = np.empty((rows, k), dtype=np.int64)
        cost = head[:, : m - k]
        for j in range(k):
            cand = cost + suffix[j + 1][:, 1 : m + 1 - (k - j)]
            cuts[:, j] = np.argmin(cand, axis=1)
            if j == 0:
                total = cand[np.arange(rows), cuts[:, 0]]
            if j + 1 < k:
                cost = _start_costs(cum_n, cum_s, cum_q, cuts[:, j, None] + 1, m - k + j)
    if k >= 2:
        lost = np.flatnonzero(~(np.isfinite(total) & (total <= ub)))
        if lost.size:
            r = lost[0]
            raise RuntimeError(
                f"pruned step fit lost its optimum (B={rows}, m={m}, k={k}): "
                f"row {r} totals {float(total[r])!r} against the upper bound {float(ub[r])!r}"
            )
    return cuts


def _at(cum, idx):
    """cum[r, idx[r, i]]: np.take_along_axis without its per-call cost."""
    return cum[np.arange(cum.shape[0])[:, None], idx]


def _sums_at(cum_n, cum_s, cum_q, idx):
    """The prefix sums (count, sum, sum of squares) at block idx[r, i] of
    row r."""
    return cum_n[idx], _at(cum_s, idx), _at(cum_q, idx)


def _cost(n0, s0, q0, n1, s1, q1):
    """The within-segment squared deviation sq - tot²/cnt of the segments
    whose prefix sums are (n0, s0, q0) at their first block and (n1, s1,
    q1) one past their last, broadcast together; inf where cnt <= 0, which
    is not a segment.  It is the one place that computes a segment cost,
    so the costs that the sweep, the band, the bound and tie extraction
    compare are bit-identical, as the pruning proof of `_cuts` needs."""
    cnt = n1 - n0
    tot = s1 - s0
    out = q1 - q0
    tot *= tot
    tot /= cnt
    out -= tot
    if np.minimum.reduce(cnt, axis=None, initial=1) <= 0:
        np.copyto(out, np.inf, where=cnt <= 0)
    return out


def _start_costs(cum_n, cum_s, cum_q, s, cmax):
    """Per row r, the cost of the blocks s[r]..c, c = 0..cmax, and inf
    where c < s[r], as a (B, cmax+1) array."""
    ends = slice(1, cmax + 2)
    sums = _sums_at(cum_n, cum_s, cum_q, s)
    return _cost(*sums, cum_n[None, ends], cum_s[:, ends], cum_q[:, ends])


def _upper_bound(cum_n, cum_s, cum_q, k, head, tail):
    """Per row, the total cost of the k cuts that greedy binary
    segmentation picks (k times, the split of one segment that lowers the
    cost most), folded from the trailing segment as `_cuts` folds its
    layers.  Those cuts are feasible, so this is at least the float
    optimum.  head[:, c] is the cost of blocks 0..c for c < m - 1, and
    tail[:, s] that of blocks s..m-1."""
    rows, m = tail.shape
    c = np.arange(m - 1)
    after = slice(1, m)
    ends = np.concatenate((np.full((rows, 1), -1), np.full((rows, 1), m - 1)), axis=1)
    for t in range(k):
        gain = np.full((rows, m - 1), np.inf)
        for i in range(t + 1):
            # cutting the segment lo..hi at c leaves lo..c and c+1..hi
            lo, hi = ends[:, i, None] + 1, ends[:, i + 1, None]
            start, stop = (_sums_at(cum_n, cum_s, cum_q, e) for e in (lo, hi + 1))
            left = head
            if i > 0:
                left = _start_costs(cum_n, cum_s, cum_q, lo, m - 2)
            if i == t:
                right = tail[:, after]
            else:
                at_c = cum_n[None, after], cum_s[:, after], cum_q[:, after]
                right = _cost(*at_c, *stop)
            split = left + right
            split -= _cost(*start, *stop)
            # the cuts lo <= c < hi
            inside = (c >= lo) & (c < hi)
            np.copyto(gain, split, where=inside)
        ends = np.sort(np.concatenate((ends, np.argmin(gain, axis=1)[:, None]), axis=1), axis=1)
    starts, stops = (_sums_at(cum_n, cum_s, cum_q, e) for e in (ends[:, :-1] + 1, ends[:, 1:] + 1))
    cost = _cost(*starts, *stops)
    total = cost[:, k]
    for j in range(k - 1, -1, -1):
        total = cost[:, j] + total
    return total


def _slack(n, q, k):
    """Certified slack, per dataset, of the pruning budget of `_cuts`, for
    n observations whose centred y has the float sum of squares q.

    In the style of Higham (Accuracy and Stability of Numerical
    Algorithms, ch. 3-4), with u = 2**-53 and g = γ_{n+1} = (n+1)u/(1-(n+1)u),
    Q = Σyc² and A = Σ|yc| <= sqrt(n·Q) over the centred y, and every
    |yc| and every segment mean at most sqrt(Q):
    - each prefix sum of yc² is off by at most g·Q, of yc by at most g·A;
    - so a segment's difference sq is off by at most 3g·Q and tot by at
      most Δ = 3g·A, and tot²/cnt by at most 2·sqrt(Q)·Δ + Δ² plus 2u of
      itself;
    - so a float segment cost is within δ = 12·g·(1 + sqrt(n) + g·n)·q of
      its exact value, which is >= 0; exact costs of disjoint segments sum
      to at most Q <= q/(1-g).
    On the optimum's path, head_j(s) + suffix[j+1][c+1] leaves out at
    least one segment's cost, so it exceeds the optimum by at most
    (2k+1)·δ plus the rounding of the folds (γ_k·Q each) and of the
    comparison (3u·Q), which 2(k+1)·δ + 4(k+2)·u·q covers;
    head_j(s) + cost(s, c) + sufmin(c) keeps the pair's own cost and is
    covered by the same.  The slack adds the 2δ by which the float costs
    of two nested segments can fall out of their exact order, and 4u·q for
    the second sum's one more addition: slack = 2(k+2)·δ + 4(k+3)·u·q.
    The steps assume 12(k+1)·g·(1 + sqrt(n) + g·n) <= 0.01 (n up to about
    1.8e8 at k = 2); beyond that the slack is inf and nothing is pruned."""
    g = (n + 1) * _UNIT / (1.0 - (n + 1) * _UNIT)
    rel = 12.0 * g * (1.0 + math.sqrt(n) + g * n)
    if (k + 1) * rel > 0.01:
        return np.full(q.shape, np.inf)
    return (2 * (k + 2) * rel + 4 * (k + 3) * _UNIT) * q


def _band(nxt, cmax, cum_n, cum_s, cum_q, budget):
    """(first, last): per row s of a layer, the columns first[s]..last[s]
    that `_suffix_layer` sweeps, for the layer's (B, m) input nxt and the
    (B, cmax+1) budget of `_cuts`.  Every column c with s <= c < first[s]
    has nxt[c + 1] > budget[s] in every dataset; first is at least s,
    cmax + 1 for a row that no dataset keeps, and nondecreasing, so that a
    chunk's rows share its first row's columns.  Column last[s] + 1 of a
    live row, if at most cmax, and column first[s] of a dead row, one with
    last[s] < first[s], have cost(s, c) + sufmin(c) > budget[s] in every
    dataset, where sufmin(c) is the least nxt[c' + 1] over c <= c' <= cmax.

    The first end is one binary search per dataset on the prefix minimum
    of nxt[c + 1].  For the last end every row is tested at first[s], and
    every live row then binary-searches its last column, each step one
    (B, live rows) evaluation of `_cost`.  The
    predicate "some dataset keeps (s, c)" is monotone along a row only in
    exact arithmetic; the contract rests on the one column tested last."""
    shape = (nxt.shape[0], cmax + 1)
    # the first c whose prefix minimum is <= budget[s] counts the c with
    # -prefmin(c) < -budget[s]
    minima = np.empty(shape)
    low = np.negative(np.minimum.accumulate(nxt[:, 1 : cmax + 2], axis=1, out=minima), out=minima)
    first = np.min([np.searchsorted(lo, t) for lo, t in zip(low, -budget)], axis=0)
    first = np.maximum(first, np.arange(cmax + 1))
    first = np.minimum.accumulate(first[::-1])[::-1]
    # sufmin(c) is column cmax - c of the minima from the right
    np.minimum.accumulate(nxt[:, cmax + 1 : 0 : -1], axis=1, out=minima)
    last = np.full(cmax + 1, -1)

    def bases(s):
        # the prefix sums at, the counts at and the budgets of the rows s
        return cum_s[:, s], cum_q[:, s], cum_n[s], budget[:, s]

    def keeps(c):
        # per row s[i], whether some dataset keeps the pair (s[i], c[i])
        cost = _cost(base_n, base_s, base_q, cum_n[c + 1], cum_s[:, c + 1], cum_q[:, c + 1])
        cost += minima[:, cmax - c]
        return np.any(cost <= budget_s, axis=0)

    s = np.flatnonzero(first <= cmax)
    base_s, base_q, base_n, budget_s = bases(s)
    # the dead rows drop out of the search
    s = s[keeps(first[s])]
    base_s, base_q, base_n, budget_s = bases(s)
    if s.size:
        lo, hi = first[s], np.full(s.size, cmax + 1)
        # lo keeps and hi is past cmax or fails: halve hi - lo down to 1
        for _ in range(int(cmax - lo.min()).bit_length()):
            mid = (lo + hi) // 2
            ok = keeps(mid)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        last[s] = lo
    return first, last


@kernel
def fit_rows(x, y, k):
    """The least-squares k-jump fit of every row of the (B, n) arrays x and
    y, by dynamic programming over prefix segment costs (`_cuts`):
    (tau, alpha, sigma_hat) as (B, k), (B, k+1) and (B, k+1) arrays.  For
    k >= 2 the sweep skips the pairs that a certified upper bound rules
    out, which changes no breakpoint.  The rows whose x are all distinct
    are one block over single observations; a row whose x repeats a value
    is a block of its own over its runs of tied x, in stable order.  Every
    block goes through `_prefix_sums`, `_cuts` and `_levels_and_scales`,
    which sums each segment of the x-sorted rows, so a row's bits do not
    depend on the rows fitted with it nor, on distinct x, on the order of
    its (x, y) pairs.  k < 0 and a row with fewer than k + 1 distinct x
    raise before anything is sized by k."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows, n = x.shape
    # the flat index of each row's j-th smallest x
    flat = np.argsort(x, axis=1)
    flat += np.arange(0, rows * n, n)[:, None]
    xs, ys = np.take(x, flat), np.take(y, flat)
    new = xs[:, 1:] != xs[:, :-1]
    runs = 1 + np.count_nonzero(new, axis=1)
    few = np.flatnonzero(runs < k + 1)
    if few.size:
        raise TooFewDistinctXError(f"need at least {k + 1} distinct x values, have {runs[few[0]]}")
    tau = np.empty((rows, k))
    alpha = np.empty((rows, k + 1))
    sigma = np.empty((rows, k + 1))
    # a row whose x repeats a value is a block of its own, in stable order;
    # on distinct x the permutation is unique, so any sort is the stable one
    tied = np.flatnonzero(runs < n)
    blocks = []
    for r in tied:
        order = np.argsort(x[r], kind="stable")
        xs[r], ys[r] = x[r, order], y[r, order]
        blocks.append(([r], np.flatnonzero(np.append(True, new[r]))))
    if tied.size < rows:
        blocks.append((np.flatnonzero(runs == n) if tied.size else slice(None), None))
    for b, starts in blocks:
        vals, cum_n, cum_s, cum_q = _prefix_sums(xs[b], ys[b], starts)
        cuts = _cuts(cum_n, cum_s, cum_q, k)
        tau[b] = _at(vals, cuts)
        alpha[b], sigma[b] = _levels_and_scales(ys[b], cum_n[cuts + 1])
    return tau, alpha, sigma


@dataclass(frozen=True)
class RescaledProcess:
    """Local criterion landscape around a reference breakpoint vector: the
    sum of its k one-coordinate sections through the origin, so its argmin
    set is the product of theirs, and the (lo, hi) window of each."""

    sections: tuple
    window: tuple


def _sections(x, y, tau_ref, alpha, scale):
    """Per coordinate j, (window, edges, values) of the sections of the B
    datasets in the (B, n) arrays x and y at levels alpha (B, k+1), with
    the windows of `rescaled_process`.  Row r of edges is -inf, the sorted
    shifts scale * (x - tau_ref[j]), inf; values[r, i] is the loss
    difference on [edges[r, i], edges[r, i+1]).  Points outside the window
    gain 0.  Gains add up from the origin outwards, a tied run in the order
    the stable sort gives; tied shifts leave zero-width cells."""
    order = np.argsort(x, axis=1, kind="stable")
    xs = np.take_along_axis(x, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)
    k, shrink = len(tau_ref), 1.0 - 1e-9
    for j in range(k):
        lo = -math.inf if j == 0 else -scale * (tau_ref[j] - tau_ref[j - 1]) / 2.0 * shrink
        hi = math.inf if j == k - 1 else scale * (tau_ref[j + 1] - tau_ref[j]) / 2.0 * shrink
        shifts = scale * (xs - tau_ref[j])
        gain = (ys - alpha[:, j, None]) ** 2 - (ys - alpha[:, j + 1, None]) ** 2
        right = np.cumsum(np.where((shifts > 0) & (shifts <= hi), gain, 0.0), axis=1)
        left = np.cumsum(np.where((shifts > lo) & (shifts <= 0), gain, 0.0)[:, ::-1], axis=1)
        values = np.pad(-left[:, ::-1], ((0, 0), (0, 1))) + np.pad(right, ((0, 0), (1, 0)))
        edges = np.pad(shifts, ((0, 0), (1, 1)), constant_values=(-math.inf, math.inf))
        yield (lo, hi), edges, values


def rescaled_process(data, tau_ref, alpha_ref, scale):
    """Difference of squared losses when breakpoint j is shifted to
    tau_ref[j] + t[j]/scale at fixed levels, as a function of t.

    The window of coordinate j reaches just short of half the gap to each
    neighbouring reference breakpoint and is unbounded on a side without
    one.  Within it the shifted breakpoints stay ordered, so the loss
    difference is the sum of per-coordinate reclassification sums, the
    sections, each zero at the origin exactly.  A section's breakpoints
    are the distinct shifts inside its window.
    """
    tau_ref = tuple(float(v) for v in tau_ref)
    alpha_ref = tuple(float(v) for v in alpha_ref)
    k = len(tau_ref)
    if k == 0:
        raise ValueError("need at least one reference breakpoint")
    if len(alpha_ref) != k + 1:
        raise ValueError("need one more level than breakpoints")
    if not all(math.isfinite(v) for v in (scale, *tau_ref, *alpha_ref)):
        raise ValueError("scale, tau_ref and alpha_ref must be finite")
    if any(tau_ref[i] >= tau_ref[i + 1] for i in range(k - 1)):
        raise CollapsedOrderError("reference breakpoints must be strictly increasing")
    if scale <= 0:
        raise ValueError("scale must be positive")

    windows, sections = [], []
    alpha = np.array([alpha_ref])
    for (lo, hi), edges, values in _sections(data.x[None], data.y[None], tau_ref, alpha, scale):
        shifts = edges[0, 1:-1]
        # the last shift of a tied run ends the run's cells
        keep = (shifts > lo) & (shifts <= hi) & np.append(shifts[1:] != shifts[:-1], True)
        windows.append((lo, hi))
        cells = values[0, np.append(0, np.flatnonzero(keep) + 1)]
        sections.append(StepFunction1D(shifts[keep], cells))
    return RescaledProcess(sections=tuple(sections), window=tuple(windows))


class XLaw(Law):
    """Covariate distribution: uniform(lo, hi) or gaussian(mean, sd)."""

    def __post_init__(self):
        super().__post_init__()
        params = self.params
        if self.family == "uniform":
            if len(params) != 2 or params[0] >= params[1]:
                raise InvalidSpecError("uniform law needs lo < hi")
        elif self.family == "gaussian":
            if len(params) != 2 or params[1] <= 0:
                raise InvalidSpecError("gaussian law needs a positive sd")
        else:
            raise InvalidSpecError(f"unknown covariate family {self.family!r}")

    def density(self, x):
        if self.family == "uniform":
            lo, hi = self.params
            return 1.0 / (hi - lo) if lo < x < hi else 0.0
        mean, sd = self.params
        z = (x - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        if x == math.inf:
            return 1.0
        if x == -math.inf:
            return 0.0
        if self.family == "uniform":
            lo, hi = self.params
            return min(1.0, max(0.0, (x - lo) / (hi - lo)))
        mean, sd = self.params
        return 0.5 * math.erfc(-(x - mean) / (sd * math.sqrt(2.0)))


class NoiseLaw(Law):
    """Centered error distribution: gaussian(0, sd) or a centered
    two_point(v1, v2, p) with P(v1) = p."""

    def __post_init__(self):
        super().__post_init__()
        params = self.params
        if self.family == "gaussian":
            if len(params) != 2 or params[0] != 0.0 or params[1] < 0:
                raise InvalidSpecError("gaussian noise must be gaussian(0, sd>=0)")
        elif self.family == "two_point":
            if len(params) != 3 or not 0.0 < params[2] < 1.0:
                raise InvalidSpecError("two_point noise needs probability in (0, 1)")
            mean = params[2] * params[0] + (1.0 - params[2]) * params[1]
            scale = max(1.0, abs(params[0]), abs(params[1]))
            if abs(mean) > 1e-12 * scale:
                raise InvalidSpecError("two_point noise must be centered")
        else:
            raise InvalidSpecError(f"unknown noise family {self.family!r}")

    def variance(self):
        if self.family == "gaussian":
            return self.params[1] ** 2
        v1, v2, p = self.params
        return p * v1 * v1 + (1.0 - p) * v2 * v2


@dataclass(frozen=True)
class RegressionModelSpec:
    """True regression function as piecewise polynomials between the jump
    locations, plus the covariate and noise laws and the target parameters
    of its best k-jump step approximation.

    The function must genuinely jump at every breakpoint and the covariate
    law must put mass around each one.
    """

    segments: tuple
    x_law: XLaw
    noise: NoiseLaw
    true_tau: tuple
    true_alpha: tuple

    def __post_init__(self):
        segments = tuple(tuple(float(c) for c in seg) for seg in self.segments)
        tau = tuple(float(v) for v in self.true_tau)
        alpha = tuple(float(v) for v in self.true_alpha)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "true_tau", tau)
        object.__setattr__(self, "true_alpha", alpha)
        k = len(tau)
        if k < 1:
            raise InvalidSpecError("need at least one jump location")
        if len(segments) != k + 1 or len(alpha) != k + 1:
            raise InvalidSpecError("need k+1 segments and k+1 levels for k jumps")
        if any(tau[i] >= tau[i + 1] for i in range(k - 1)):
            raise InvalidSpecError("jump locations must be strictly increasing")
        for j in range(1, k + 1):
            left, right = self.side_values(j)
            if left == right:
                raise InvalidSpecError(f"regression function must jump at location {j}")
            if self.x_law.density(tau[j - 1]) <= 0.0:
                raise InvalidSpecError(f"covariate density vanishes at location {j}")

    @property
    def k(self):
        return len(self.true_tau)

    def regression_values(self, x):
        """The regression function at every entry of x: segment j's
        polynomial on (tau[j-1], tau[j]].  Each polynomial is evaluated
        everywhere and kept where it applies."""
        x = np.asarray(x, dtype=float)
        out = npoly.polyval(x, self.segments[0])
        for tau, seg in zip(self.true_tau, self.segments[1:]):
            np.copyto(out, npoly.polyval(x, seg), where=x > tau)
        return out

    def side_values(self, j):
        """(limit from the left, limit from the right) at jump j (1-based)."""
        tau = self.true_tau[j - 1]
        left = float(npoly.polyval(tau, self.segments[j - 1]))
        right = float(npoly.polyval(tau, self.segments[j]))
        return left, right


@kernel
def draw_rows(model, rng, shape):
    """Datasets drawn from `rng` as arrays x and y of `shape`: every
    covariate first, then every noise term, in C order.  A (1, n) draw is
    the same stream as an n draw, and row r of a (B, n) draw is
    observations r·n .. r·n + n - 1 of each."""
    x = model.x_law.sample(rng, shape)
    y = model.regression_values(x)
    y += model.noise.sample(rng, shape)
    return x, y


def synthesize(model, n, seed):
    """Draw n observations from the integer seed: covariates first, then
    noise, so the stream layout is fixed for a given seed."""
    if n < 2:
        raise ValueError("need n >= 2")
    x, y = draw_rows(model, np.random.default_rng(int(seed) & ((1 << 64) - 1)), (1, n))
    return Dataset(x[0], y[0])


def _derived_jump_laws(model, j):
    jj = j - 1
    a_lo = model.true_alpha[jj]
    a_hi = model.true_alpha[jj + 1]
    m_minus, m_plus = model.side_values(j)
    delta_right = (m_plus - a_lo) ** 2 - (m_plus - a_hi) ** 2
    delta_left = (m_minus - a_hi) ** 2 - (m_minus - a_lo) ** 2
    if delta_right <= 0 or delta_left <= 0:
        raise NonpositiveJumpMeanError(
            f"induced jump means at location {j} are not strictly positive"
        )
    gap = a_hi - a_lo
    noise = model.noise
    if noise.family == "gaussian":
        sd = 2.0 * abs(gap) * noise.params[1]
        if sd == 0.0:
            return JumpLaw("point", (delta_right,)), JumpLaw("point", (delta_left,))
        # the squared terms of the noise cancel in the loss difference, so
        # gaussian noise induces exactly gaussian jumps
        return (
            JumpLaw("gaussian", (delta_right, sd)),
            JumpLaw("gaussian", (delta_left, sd)),
        )
    v1, v2, p = noise.params
    right = JumpLaw("two_point", (delta_right + 2 * v1 * gap, delta_right + 2 * v2 * gap, p))
    left = JumpLaw("two_point", (delta_left - 2 * v1 * gap, delta_left - 2 * v2 * gap, p))
    return right, left


def derive_limit_spec(model, j):
    """Plug-in limit process for the rescaled breakpoint deviation at jump
    j (1-based): arrival rate equal to the covariate density at the jump,
    jump laws equal to the loss increments of reclassifying one observation
    drawn from the matching side.  The spec has no time window to size:
    its walks are certified in index space, and a jump law too close to
    driftless for that raises InvalidSpecError."""
    if not 1 <= j <= model.k:
        raise ValueError("jump index out of range")
    rate = model.x_law.density(model.true_tau[j - 1])
    if rate <= 0:
        raise InvalidSpecError("covariate density must be positive at the jump")
    right, left = _derived_jump_laws(model, j)
    return CompoundPoissonSpec(rate_right=rate, rate_left=rate, jump_right=right, jump_left=left)


def dataset_from_csv(text):
    """Parse `x,y` CSV with a header row; errors carry the offending line."""
    lines = text.splitlines()
    if not lines or lines[0].strip().lower().replace(" ", "") != "x,y":
        raise DatasetFormatError("line 1: expected header 'x,y'", line=1)
    xs = []
    ys = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetFormatError(f"line {lineno}: expected two comma-separated fields", line=lineno)
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}", line=lineno) from exc
    if len(xs) < 2:
        raise DatasetFormatError("need at least two data rows", line=len(lines))
    return Dataset(xs, ys)

"""Two-sided pure-jump compound Poisson trajectories with positive-mean
jumps, Monte Carlo estimators for the capacity and containment functionals
of their argmin sets, and the normal-quantile helper used for the level
part of confidence rectangles.

A trajectory is zero at the origin, accumulates right-side jumps at Poisson
arrival times t > 0 and left-side jumps as left limits at t < 0, so it is
right-continuous and its argmin set is almost surely a finite union of
compact intervals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from statistics import NormalDist

import numpy as np

from stepargmin._scratch import scratch
from stepargmin.argmin import INF, IntervalRows, _argmin_cells, argmin_set
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfun import StepFunction1D
from stepargmin.textfmt import InvalidSpecError, Law, convert, parse_law_token, read_key_values

_SQRT2 = math.sqrt(2.0)


class EmptySamplesError(ValueError):
    pass


class OutOfDomainError(ValueError):
    pass


class JumpLaw(Law):
    """Jump distribution descriptor.

    Families: point(c), two_point(v1, v2, p) with P(v1) = p,
    gaussian(mean, sd), shifted_exp(shift, scale), empirical(samples...).
    """

    def __post_init__(self):
        super().__post_init__()
        params = self.params
        if self.family not in ("point", "two_point", "gaussian", "shifted_exp", "empirical"):
            raise InvalidSpecError(f"unknown jump family {self.family!r}")
        n_expected = {"point": 1, "two_point": 3, "gaussian": 2, "shifted_exp": 2}
        if self.family in n_expected and len(params) != n_expected[self.family]:
            raise InvalidSpecError(f"{self.family} takes {n_expected[self.family]} parameters")
        if self.family == "two_point" and not 0.0 <= params[2] <= 1.0:
            raise InvalidSpecError("two_point probability must lie in [0, 1]")
        if self.family == "gaussian" and params[1] < 0:
            raise InvalidSpecError("gaussian sd must be nonnegative")
        if self.family == "shifted_exp" and params[1] <= 0:
            raise InvalidSpecError("shifted_exp scale must be positive")
        if self.family == "empirical" and not params:
            raise InvalidSpecError("empirical law needs at least one sample")

    def mean(self):
        p = self.params
        if self.family == "point":
            return p[0]
        if self.family == "two_point":
            return p[2] * p[0] + (1.0 - p[2]) * p[1]
        if self.family == "gaussian":
            return p[0]
        if self.family == "shifted_exp":
            return p[0] + p[1]
        return float(np.mean(p))

    @functools.cached_property
    def lundberg(self):
        """The Lundberg exponent: the root R > 0 of E[exp(-R J)] = 1.

        It is inf for a law with no mass below 0, 2 mean / sd^2 for a
        gaussian, and otherwise found by bisection and rounded down, so
        E[exp(-R J)] <= 1 holds at the R returned.  It reads 0 for a law of
        nonpositive mean, which has no such root, and where the root
        underflows (below 2**-200 for the bisection)."""
        p = self.params
        if self.family == "gaussian" and p[1] > 0:
            return max(2.0 * p[0] / p[1] / p[1], 0.0)
        if self.family in ("two_point", "empirical"):
            atoms, weights = _atoms(self)
            negative = bool(np.any(atoms[weights > 0] < 0))
        else:
            # point(c), gaussian(c, 0) and shifted_exp(c, scale) reach down to c
            negative = p[0] < 0
        if not negative:
            return INF
        if self.mean() <= 0:
            return 0.0
        return _lundberg_root(functools.partial(_log_laplace, self))


def _atoms(law):
    """Values and probabilities of a two_point or empirical law."""
    p = law.params
    if law.family == "two_point":
        return np.array(p[:2]), np.array([p[2], 1.0 - p[2]])
    return np.array(p), np.full(len(p), 1.0 / len(p))


def _log_laplace(law, r):
    """log E[exp(-r J)] of a shifted_exp, two_point or empirical law."""
    p = law.params
    if law.family == "shifted_exp":
        return -r * p[0] - math.log1p(r * p[1])
    atoms, weights = _atoms(law)
    keep = weights > 0
    exponents = np.log(weights[keep]) - r * atoms[keep]
    top = float(exponents.max())
    return top + math.log(float(np.exp(exponents - top).sum()))


def _lundberg_root(log_laplace):
    """The positive root of a convex log_laplace that is 0 at 0 and
    negative just above it: doubling, then bisection to the last bit, and
    the lower end rounded down by a relative 1e-9.  0 when the root lies
    below 2**-200, the largest finite bound tried when above 2**1000."""
    lo, hi = 0.0, 1.0
    for _ in range(1000):
        if log_laplace(hi) > 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return lo
    for _ in range(1200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) or hi < 2.0**-200:
            break
        if log_laplace(mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo * (1.0 - 1e-9)


def jump_law_from_token(token):
    return JumpLaw(*parse_law_token(token, InvalidSpecError))


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Rates and jump laws of a two-sided compound Poisson process.
    Positive jump means force the trajectory upward on both sides, so the
    argmin set is almost surely compact.

    A block draws each side's jump walk until it is certified (`_walk`):
    the argmin cells it hands on are those of the endless walk, except on
    an event of probability at most _EPSILON = 1e-12 per row and side,
    fixed and not a spec key.  A side whose jump law climbs ln(1/_EPSILON)
    / R in more than _MAX_GAPS jumps of its mean drift, or whose Lundberg
    exponent R reads 0, is rejected, so a block's arrays stay bounded.

    window_initial, window_growth and max_window are accepted and checked
    (finite, max_window positive and at least window_initial, which reads
    min(8, max_window) when unset, and window_growth above 1), so spec
    files written with them stay valid; they are not stored and change no
    draw, since the walks have no time window."""

    rate_right: float
    rate_left: float
    jump_right: JumpLaw
    jump_left: JumpLaw
    window_initial: InitVar[float] = None
    window_growth: InitVar[float] = 2.0
    max_window: InitVar[float] = 64.0

    def __post_init__(self, window_initial, window_growth, max_window):
        first = min(8.0, max_window) if window_initial is None else window_initial
        values = {
            "rate_right": self.rate_right,
            "rate_left": self.rate_left,
            "window_initial": first,
            "window_growth": window_growth,
            "max_window": max_window,
        }
        for name, value in values.items():
            if not math.isfinite(value):
                raise InvalidSpecError(f"{name} must be finite")
        if self.rate_right <= 0 or self.rate_left <= 0:
            raise InvalidSpecError("rates must be strictly positive")
        if self.jump_right.mean() <= 0 or self.jump_left.mean() <= 0:
            raise InvalidSpecError("jump laws must have strictly positive mean")
        if max_window <= 0:
            raise InvalidSpecError("max_window must be positive")
        if first <= 0:
            raise InvalidSpecError("window_initial must be positive")
        if window_growth <= 1:
            raise InvalidSpecError("window_growth must exceed 1")
        if max_window < first:
            raise InvalidSpecError("max_window must be at least window_initial")
        for side in ("right", "left"):
            law = getattr(self, f"jump_{side}")
            if _climb(law) > _MAX_GAPS:
                raise InvalidSpecError(
                    f"jump_{side} = {law.to_token()} cannot be certified: its drift climbs "
                    f"ln(1/eps)/R in {_climb(law):.6g} jumps (R = {law.lundberg!r}), "
                    f"above the cap of {_MAX_GAPS}"
                )

    def to_text(self):
        """The spec file text of the rates and jump laws."""
        return (
            f"rate_right = {self.rate_right!r}\n"
            f"rate_left = {self.rate_left!r}\n"
            f"jump_right = {self.jump_right.to_token()}\n"
            f"jump_left = {self.jump_left.to_token()}\n"
        )


# the keys of a spec file; the first four are required, the last three are
# the window keys, checked and ignored
_SPEC_KEYS = (
    "rate_right",
    "rate_left",
    "jump_right",
    "jump_left",
    "window_initial",
    "window_growth",
    "max_window",
)


def spec_from_text(text):
    entries = read_key_values(text, _SPEC_KEYS.__contains__, _SPEC_KEYS[:4], InvalidSpecError)
    kwargs = {}
    for key, value in entries.items():
        if key.startswith("jump_"):
            kwargs[key] = jump_law_from_token(value)
        else:
            kwargs[key] = convert(float, value, key, InvalidSpecError)
    return CompoundPoissonSpec(**kwargs)


@dataclass(frozen=True)
class FunctionalEstimate:
    value: float
    std_error: float
    replications: int


def _binom_se(p, n):
    """Standard error sqrt(p(1 - p) / n) of a frequency p over n trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _proportion(flags, n):
    value = float(np.sum(flags)) / n
    return FunctionalEstimate(value, _binom_se(value, n), n)


# --- block simulation kernel ----------------------------------------------
#
# Replications are simulated in blocks of _BLOCK rows, and block b draws
# everything from substream(seed, b), so the draw of replication r depends
# on (spec, seed, r) only: not on the replication count, nor on how the
# replications are split between workers.  A block draws the right side's
# jump walks, then the left side's, then the right side's arrival gaps,
# then the left side's.

_BLOCK = 64

# jumps per row and side that a walk may take: a 64-row block's walk then
# stays near 8 MB
_MAX_GAPS = 2**14

# each side of a row is drawn until the chance that the jumps not drawn
# change its argmin set is at most _EPSILON (see _walk)
_EPSILON = 1e-12
_HEIGHT = math.log(1.0 / _EPSILON)
# a walk's first chunk spans _FIRST times the jumps that a drift of E[J]
# takes to climb _HEIGHT / R, each later chunk _STEP times, and at least
# _MIN_STEP jumps
_FIRST = 1.2
_STEP = 1.0
_MIN_STEP = 8


class UncertifiedWalkError(RuntimeError):
    """Raised when a row's jump walk is still uncertified at _MAX_GAPS jumps."""


def _climb(law):
    """ln(1/_EPSILON) / (R E[J]): the jumps that the law's mean drift takes
    to climb the certified height; 0 when R is inf, inf when R is 0."""
    drift = law.lundberg * law.mean()
    return _HEIGHT / drift if drift > 0 else INF


def _jumps(rng, law, out):
    """Jumps of the law into the array `out`.  A two_point law of p = 1/2
    takes its atoms from fair random bits, 64 to a generator word, which
    is several times cheaper than a uniform per jump."""
    if law.family != "two_point" or law.params[2] != 0.5:
        return law.sample(rng, out.shape, out=out)
    rows, cols = out.shape
    words = rng.bit_generator.random_raw(rows * -(-cols // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8).reshape(rows, -1), axis=1, count=cols)
    # take with an intp index, which it does not copy
    index = scratch("cpoisson.jumps", out.shape, np.intp)
    np.copyto(index, bits)
    return np.take(np.array(law.params[1::-1]), index, out=out, mode="clip")


def _walk(rng, spec, side, rows):
    """The running jump sums S_1, S_2, ... of one side for `rows` rows, as
    (chunks, low, at).  chunks lists (rows, first column, sums): the first
    chunk holds every row, a later one the rows still pending then, with
    their sums continued.  low is min(0, S_1, ..., S_L) of each row's walk
    of L jumps, and at the last index that attains it (0: the origin).

    A row's walk is drawn chunk by chunk until S_L > low + _HEIGHT / R, R
    being the law's Lundberg exponent.  By the Lundberg inequality, the
    walk after S_L then falls back to low or below with probability at
    most _EPSILON, so the jumps not drawn change no argmin set but on that
    event.  A row still uncertified at _MAX_GAPS jumps raises
    UncertifiedWalkError."""
    law = getattr(spec, f"jump_{side}")
    height = _HEIGHT / law.lundberg
    climb = _climb(law)
    width = min(max(1, math.ceil(_FIRST * climb)), _MAX_GAPS)
    step = max(_MIN_STEP, math.ceil(_STEP * climb))
    sums = _jumps(rng, law, scratch(f"cpoisson.{side}", (rows, width)))
    np.cumsum(sums, axis=1, out=sums)
    # the last minimum of each row: argmin of the reversed row
    at = width - np.argmin(sums[:, ::-1], axis=1)
    low = sums[np.arange(rows), at - 1]
    at[low > 0.0] = 0
    np.minimum(low, 0.0, out=low)
    end = sums[:, -1].copy()
    chunks = [(slice(None), 0, sums)]
    pending = np.flatnonzero(end - low <= height)
    length = width
    while pending.size:
        if length == _MAX_GAPS:
            raise UncertifiedWalkError(
                f"a {side} walk of the spec ({'; '.join(spec.to_text().splitlines())}) "
                f"is still uncertified after {_MAX_GAPS} jumps"
            )
        more = _jumps(rng, law, np.empty((pending.size, min(step, _MAX_GAPS - length))))
        more[:, 0] += end[pending]
        np.cumsum(more, axis=1, out=more)
        last = more.shape[1] - np.argmin(more[:, ::-1], axis=1)
        least = more[np.arange(pending.size), last - 1]
        # a tie with low is a later index that attains it
        lower = least <= low[pending]
        low[pending[lower]] = least[lower]
        at[pending[lower]] = length + last[lower]
        end[pending] = more[:, -1]
        chunks.append((pending, length, more))
        length += more.shape[1]
        pending = pending[end[pending] - low[pending] <= height]
    return chunks, low, at


def _arrivals(rng, chunks, count, rate, times, sums):
    """Writes one side's arrival times over `rate` into `times` and its
    running sums into `sums`, (rows, n) views with n = max(count).  A row
    draws count gaps, each over `rate`, and its later times repeat its last
    one; its sums past its walk repeat its last sum."""
    n = times.shape[1]
    for rows, offset, more in chunks:
        if offset >= n:
            break
        part = more[:, : n - offset]
        sums[rows, offset : offset + part.shape[1]] = part
        sums[rows, offset + part.shape[1] :] = part[:, -1:]
    gaps = np.zeros(times.shape)
    gaps[np.arange(n) < count[:, None]] = rng.standard_exponential(int(count.sum())) / rate
    np.cumsum(gaps, axis=1, out=times)


def _draw_block(spec, rng, rows, whole=False):
    """``rows`` trajectories as arrays (edges, values): cell edges (rows, n
    + 2) and cell values (rows, n + 1), cell j of a row spanning [edges[j],
    edges[j + 1]).  Both are this thread's scratch buffers, valid until
    its next block draw.

    Each side draws its certified walk (`_walk`), then per row the arrival
    gaps up to one past the last index that attains the row's minimum
    min(0, left walk, right walk): so the argmin cells of a row are those
    of its endless trajectory, except on an event of probability at most
    _EPSILON per row and side.  Past its last gap a row's cells have no
    width, but for the outermost one, which holds a value above the
    minimum.  With `whole` set, the gaps span each row's whole walk
    instead, and the cells are the trajectory up to its last arrival.

    Left cells hold the partial sums of jumps strictly beyond the cell, the
    center cell spanning zero holds 0, right cells the running sums.  Cells
    of zero width are not part of the trajectory."""
    walks = [_walk(rng, spec, side, rows) for side in ("right", "left")]
    low = np.minimum(walks[0][1], walks[1][1])
    counts = []
    for chunks, side_low, at in walks:
        if whole:
            count = np.full(rows, chunks[0][2].shape[1])
            for pending, offset, more in chunks[1:]:
                count[pending] = offset + more.shape[1]
        else:
            # a side that does not attain the row's minimum needs no gap
            count = np.where(side_low == low, at + 1, 0)
        counts.append(count)
    n_right, n_left = (int(count.max()) for count in counts)
    edges = scratch("cpoisson.edges", (rows, n_left + n_right + 2))
    values = scratch("cpoisson.values", (rows, n_left + n_right + 1))
    # the left side's arrivals run outwards from the origin, so into
    # reversed views
    _arrivals(
        rng, walks[0][0], counts[0], spec.rate_right, edges[:, n_left + 1 : -1], values[:, n_left + 1 :]
    )
    _arrivals(
        rng,
        walks[1][0],
        counts[1],
        -spec.rate_left,
        edges[:, 1 : n_left + 1][:, ::-1],
        values[:, :n_left][:, ::-1],
    )
    edges[:, 0] = -INF
    edges[:, -1] = INF
    values[:, n_left] = 0.0
    return edges, values


def _row_function(edges, values):
    """Breakpoints and values of one block row with its zero-width cells
    dropped, as a StepFunction1D takes them."""
    real = edges[:-1] < edges[1:]
    return edges[:-1][real][1:], values[real]


def _build_trajectory(spec, seed):
    """The trajectory over both whole certified walks as breakpoint and
    value arrays: the one-row case of the block kernel.  Pure in (spec,
    seed)."""
    edges, values = _draw_block(spec, substream(seed), 1, whole=True)
    return _row_function(edges[0], values[0])


def _simulate(spec, seed):
    """Returns (trajectory, argmin BoxUnion, False): the trajectory over
    both whole certified walks and its argmin set.  The benchmark tracer
    reads the third entry as a boundary flag; no window bounds the walks,
    so it is always False."""
    breaks, values = _build_trajectory(spec, seed)
    trajectory = StepFunction1D(breaks, values)
    return trajectory, argmin_set(trajectory), False


def simulate_trajectory(spec, seed):
    """One trajectory over both whole certified walks."""
    return _simulate(spec, seed)[0]


def _predicate_worker(args, b, count):
    """The argmin sets of the first `count` replications of block b as one
    (intervals, 3) array: per interval, its replication's global index and
    its lo and hi.  Rows run in replication order, intervals increasing
    within a row.  Replication r is row r % _BLOCK of block r // _BLOCK."""
    spec, seed = args
    row, lo, hi = _argmin_cells(*_draw_block(spec, substream(seed, b), _BLOCK))
    n = int(np.searchsorted(row, count))
    return np.column_stack((row[:n] + b * _BLOCK, lo[:n], hi[:n]))


# the benchmark tracer wraps these names; no caller uses them, so their
# spans read 0 until the tracer drops them
_extremes_worker = _predicate_worker
_draw_accepted = _predicate_worker


def _limit_job(spec, seed, replications):
    """The `run_chunks` job of the `_predicate_worker` intervals of
    replications 0..replications-1; read its array with `_job_sets`."""
    if replications < 1:
        raise ValueError("replications must be at least 1")
    return _predicate_worker, (spec, seed), replications, _BLOCK


def _job_sets(cells):
    """The argmin sets of a limit job's array as IntervalRows."""
    return IntervalRows.from_cells(cells[:, 0], cells[:, 1], cells[:, 2])


# (key, rows) of the last limit sample that the public estimators drew:
# one tuple, read once, as argmin._last is.  The key is (spec, seed,
# replications, workers); workers is part of it so that a call with a new
# worker count runs its own blocks.  The kept arrays are read-only
_kept = (None, None)


def _limit_sets(spec, seed, replications, workers):
    """The `_job_sets` of replications 0..replications-1, drawn through
    `_limit_job`.  A call with the key of the previous call that returned
    returns its sets without drawing; a sample that raises is not kept."""
    global _kept
    key = (spec, seed, replications, workers)
    kept_key, rows = _kept
    if kept_key == key:
        return rows
    rows = _job_sets(run_chunks([_limit_job(spec, seed, replications)], workers)[0])
    for a in (rows.lo, rows.hi, rows.starts):
        a.flags.writeable = False
    _kept = (key, rows)
    return rows


def sample_extreme_minimizers(spec, replications, seed, workers=1):
    """Smallest and largest minimizer per replication as a record array
    with fields xi_min and xi_max.  The sample is the `_limit_sets` one
    that a capacity or containment estimate on the same (spec, seed,
    replications, workers) reads; the record array is a new copy."""
    rows = _limit_sets(spec, seed, replications, workers)
    return np.rec.fromarrays((rows.smallest(), rows.largest()), names="xi_min,xi_max")


def _estimate(spec, kind, target, replications, seed, workers):
    # the set is checked before the kept sample is looked up or drawn
    if target.dim != 1:
        raise ValueError("dimension mismatch")
    rows = _limit_sets(spec, seed, replications, workers)
    return _proportion(rows.meets(kind, target), replications)


def estimate_capacity(spec, e, replications, seed, workers=1):
    """Monte Carlo estimate of P(argmin set hits the closed 1-D union e),
    on the `_limit_sets` sample of (spec, seed, replications, workers)."""
    return _estimate(spec, "closed", e, replications, seed, workers)


def estimate_containment(spec, g, replications, seed, workers=1):
    """Monte Carlo estimate of P(argmin set lies inside the open 1-D union
    g), on the `_limit_sets` sample of (spec, seed, replications,
    workers)."""
    return _estimate(spec, "open", g, replications, seed, workers)


def samples_to_csv(samples):
    lines = ["rep,xi_min,xi_max"]
    # Python floats: their repr is the report format, a numpy scalar's is not
    for rep, (lo, hi) in enumerate(zip(samples.xi_min.tolist(), samples.xi_max.tolist())):
        lines.append(f"{rep},{lo!r},{hi!r}")
    return "\n".join(lines) + "\n"


def choose_interval_bounds(xi_min, xi_max, gamma):
    """Bounds (a, b) with empirical P(xi_min > a and xi_max < b) >= gamma
    over the paired samples xi_min[i], xi_max[i].

    Bonferroni split on the two tails: each side gives up at most half of
    1 - gamma, taken at an order statistic nudged outward so atoms cannot
    sit on the strict-inequality boundary.
    """
    m = len(xi_min)
    if m == 0:
        raise EmptySamplesError("no minimizer samples")
    if not 0.0 < gamma < 1.0:
        raise OutOfDomainError("gamma must lie in (0, 1)")
    lo_sorted = np.sort(np.asarray(xi_min, dtype=float))
    hi_sorted = np.sort(np.asarray(xi_max, dtype=float))
    r = max(1, math.floor(((1.0 - gamma) / 2.0) * m))
    a_stat = float(lo_sorted[r - 1])
    b_stat = float(hi_sorted[m - r])
    a = a_stat - 1e-9 * max(1.0, abs(a_stat))
    b = b_stat + 1e-9 * max(1.0, abs(b_stat))
    return a, b


def normal_cdf(z):
    return 0.5 * math.erfc(-z / _SQRT2)


def inverse_normal_cdf(p):
    """Standard normal quantile (statistics.NormalDist, Wichura's AS 241)."""
    if not 0.0 < p < 1.0:
        raise OutOfDomainError("p must lie strictly between 0 and 1")
    return NormalDist().inv_cdf(p)

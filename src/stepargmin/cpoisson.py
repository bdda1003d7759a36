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
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from stepargmin.argmin import INF, IntervalRows, _argmin_cells, argmin_set
from stepargmin.rng import child_seed, run_chunks, substream
from stepargmin.stepfun import StepFunction1D
from stepargmin.textfmt import InvalidSpecError, Law, convert, parse_law_token, read_key_values

_SQRT2 = math.sqrt(2.0)


class TooManyRedrawsError(RuntimeError):
    """Raised when boundary redraws exceed 1% of the requested replications."""


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
    """Rates, jump laws, and the adaptive-window policy of a two-sided
    compound Poisson process.  Positive jump means force the trajectory
    upward on both sides, so the argmin set is almost surely compact.
    An unset window_initial stays None and reads as min(8, max_window)
    (`_first_window`), so `dataclasses.replace` of max_window moves it
    along.  A side whose rate and max_window would draw more than
    _MAX_GAPS gaps per row is rejected, so a block's arrays stay bounded.

    Every block draws all arrivals of [-max_window, max_window], but a
    side's argmin cells are taken over its certified prefix (`_arrivals`),
    which agrees with the whole window except on an event of probability
    at most _EPSILON = 1e-12 per row and side, fixed and not a spec key;
    jump laws too close to driftless take the whole window."""

    rate_right: float
    rate_left: float
    jump_right: JumpLaw
    jump_left: JumpLaw
    window_initial: float = None
    window_growth: float = 2.0
    max_window: float = 64.0

    def __post_init__(self):
        first = _first_window(self)
        for name in ("rate_right", "rate_left", "window_initial", "window_growth", "max_window"):
            if not math.isfinite(first if name == "window_initial" else getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite")
        if self.rate_right <= 0 or self.rate_left <= 0:
            raise InvalidSpecError("rates must be strictly positive")
        if self.jump_right.mean() <= 0 or self.jump_left.mean() <= 0:
            raise InvalidSpecError("jump laws must have strictly positive mean")
        if self.max_window <= 0:
            raise InvalidSpecError("max_window must be positive")
        if first <= 0:
            raise InvalidSpecError("window_initial must be positive")
        if self.window_growth <= 1:
            raise InvalidSpecError("window_growth must exceed 1")
        if self.max_window < first:
            raise InvalidSpecError("max_window must be at least window_initial")
        for side in ("right", "left"):
            rate = getattr(self, f"rate_{side}")
            # a product that overflows has no count, and is above the cap
            gaps = _gap_count(rate, self.max_window) if rate * self.max_window < INF else INF
            if gaps > _MAX_GAPS:
                raise InvalidSpecError(
                    f"the {side} side would draw {gaps} gaps per row for rate_{side} = "
                    f"{rate!r} and max_window = {self.max_window!r}, above the cap of {_MAX_GAPS}"
                )

    def to_text(self):
        """The spec file text; window_initial is written only when set."""
        lines = [
            f"rate_right = {self.rate_right!r}",
            f"rate_left = {self.rate_left!r}",
            f"jump_right = {self.jump_right.to_token()}",
            f"jump_left = {self.jump_left.to_token()}",
        ]
        if self.window_initial is not None:
            lines.append(f"window_initial = {self.window_initial!r}")
        lines += [f"window_growth = {self.window_growth!r}", f"max_window = {self.max_window!r}"]
        return "\n".join(lines) + "\n"


def _first_window(spec):
    """The first window of the spec's policy: window_initial, or
    min(8, max_window) when it is unset."""
    if spec.window_initial is None:
        return min(8.0, spec.max_window)
    return spec.window_initial


# the keys of a spec file; the first four are required
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
# replications are split between workers.

_BLOCK = 64

# gaps per row and side that a spec may ask for: a 64-row block's cell
# edges then stay near 17 MB
_MAX_GAPS = 2**14

# each side of a row is scanned until the chance that the arrivals not
# scanned change its argmin set is at most _EPSILON (see _arrivals)
_EPSILON = 1e-12
_HEIGHT = math.log(1.0 / _EPSILON)
# a side's first prefix spans _FIRST times the arrivals that a drift of
# E[J] takes to climb _HEIGHT / R; it grows _GROWTH-fold
_FIRST = 3
_GROWTH = 4


def _gap_count(rate, horizon):
    """Gaps drawn per row and side before any top-up: the mean arrival count
    over the horizon plus four standard deviations."""
    mean = rate * horizon
    return math.ceil(mean + 4.0 * math.sqrt(mean)) + 4


def _arrivals(rng, rate, law, horizon, times, sums, whole):
    """Arrival times and running jump sums of one side, written into the
    first c columns of the (rows, width) arrays times and sums and returned
    as those columns; arrival times beyond the horizon read +inf.

    c is the certified prefix: every row has an arrival past the horizon
    among its first c, or a running sum S_c above min(0, S_1, ..., S_c)
    by more than _HEIGHT / R, R being the law's Lundberg exponent.  By the
    Lundberg inequality, the sums after S_c of such a row fall back to
    that minimum with probability at most _EPSILON, so the columns from c
    on hold no cell of its argmin set.  c starts at 1 + _FIRST _HEIGHT /
    (R E[J]), which is 1 for jumps that are never negative, and grows
    _GROWTH-fold until every row is certified.  One loop sums the gaps and
    jumps in place, each round continuing from the last column summed, so
    the c columns are those of the whole window bit for bit.  The columns
    are cut after the first that is past the horizon in every row.

    The whole window, c = width, is the loop's first round when `whole` is
    set, when the first c would exceed half the width, and when some row's
    last arrival may not pass the horizon.  Then, while some row's last
    arrival does not pass the horizon, every row is topped up from the
    same generator, and the times and sums are returned as new, wider
    arrays instead.  Every case draws the same gaps, jumps and top-ups."""
    rows, width = times.shape
    gaps = rng.standard_exponential((rows, width))
    height = _HEIGHT / law.lundberg if law.lundberg > 0 else INF
    first = 1.0 + _FIRST * height / law.mean()
    # the half-width rule keeps nearly driftless laws, whose R is swamped by
    # rounding, on the whole window; a row's pairwise sum of gaps is off
    # from cumsum's sequential one by far less than the margin
    if (
        whole
        or 2.0 * first > width
        or not np.all(np.add.reduce(gaps, axis=1) > rate * horizon * (1.0 + 1e-9))
    ):
        stop = width
    else:
        stop = math.ceil(first)
    jumps = law.sample(rng, (rows, width))
    done = 0
    while True:
        # in place, continuing from the last column summed
        run = slice(max(done - 1, 0), stop)
        np.cumsum(gaps[:, run], axis=1, out=gaps[:, run])
        np.cumsum(jumps[:, run], axis=1, out=jumps[:, run])
        if stop == width:
            break
        rise = jumps[:, stop - 1] - np.minimum(jumps[:, :stop].min(axis=1), 0.0)
        if np.all((rise > height) | (gaps[:, stop - 1] / rate > horizon)):
            break
        done, stop = stop, min(width, _GROWTH * stop)
    times = np.divide(gaps[:, :stop], rate, out=times[:, :stop])
    # only the whole window can end short of the horizon; the top-up
    # continues its times and sums in new, wider arrays
    while stop >= width and np.any(times[:, -1] <= horizon):
        more = np.cumsum(rng.standard_exponential((rows, width)), axis=1) / rate
        times = np.hstack([times, times[:, -1:] + more])
        jumps = np.hstack([jumps, law.sample(rng, (rows, width))])
        np.cumsum(jumps[:, stop - 1 :], axis=1, out=jumps[:, stop - 1 :])
        stop += width
    stop = _cut(times, horizon)
    if stop > width:
        return times[:, :stop], jumps[:, :stop]
    np.copyto(sums[:, :stop], jumps[:, :stop])
    return times[:, :stop], sums[:, :stop]


def _cut(times, horizon):
    """Sets the arrival times beyond the horizon to +inf.  Returns the
    number of columns up to the first that is past the horizon in every
    row, from which on all cells have no width, or all columns."""
    past = times > horizon
    times[past] = INF
    every = past.all(axis=0)
    return int(np.argmax(every)) + 1 if every[-1] else times.shape[1]


def _draw_block(spec, rng, rows, whole=False):
    """``rows`` trajectories as new arrays (edges, values): cell edges
    (rows, n + 2) and cell values (rows, n + 1), cell j of a row spanning
    [edges[j], edges[j + 1]).

    Each side holds its certified prefix of arrivals (`_arrivals`): the
    argmin cells of a row are those of the whole window [-max_window,
    max_window], except on an event of probability at most _EPSILON per
    row and side.  With `whole` set, both sides hold the whole window.
    Either way the block draws the same numbers from rng.

    Left cells hold the partial sums of jumps strictly beyond the cell, the
    center cell spanning zero holds 0, right cells the running sums.  Cells
    of zero width, from arrivals beyond the horizon or coinciding arrival
    times, are not part of the trajectory."""
    w = spec.max_window
    n_left, n_right = _gap_count(spec.rate_left, w), _gap_count(spec.rate_right, w)
    edges = np.empty((rows, n_left + n_right + 2))
    values = np.empty((rows, n_left + n_right + 1))
    # each side lands in its place unless it is topped up; the left side's
    # arrivals run outwards from the origin, so into reversed views
    t_right, s_right = _arrivals(
        rng,
        spec.rate_right,
        spec.jump_right,
        w,
        edges[:, n_left + 1 : -1],
        values[:, n_left + 1 :],
        whole,
    )
    t_left, s_left = _arrivals(
        rng,
        spec.rate_left,
        spec.jump_left,
        w,
        edges[:, n_left:0:-1],
        values[:, n_left - 1 :: -1],
        whole,
    )
    c_left, c_right = t_left.shape[1], t_right.shape[1]
    if c_left <= n_left and c_right <= n_right:
        # the two prefixes are the columns next to the center cell
        edges = edges[:, n_left - c_left : n_left + c_right + 2]
        values = values[:, n_left - c_left : n_left + c_right + 1]
        np.negative(edges[:, 1 : c_left + 1], out=edges[:, 1 : c_left + 1])
    else:
        edges = np.empty((rows, c_left + c_right + 2))
        edges[:, 1 : c_left + 1] = -t_left[:, ::-1]
        edges[:, c_left + 1 : -1] = t_right
        values = np.empty((rows, edges.shape[1] - 1))
        values[:, :c_left] = s_left[:, ::-1]
        values[:, c_left + 1 :] = s_right
    edges[:, 0] = -INF
    edges[:, -1] = INF
    values[:, c_left] = 0.0
    return edges, values


def _row_function(edges, values):
    """Breakpoints and values of one block row with its zero-width cells
    dropped, as a StepFunction1D takes them."""
    real = edges[:-1] < edges[1:]
    return edges[:-1][real][1:], values[real]


def _build_trajectory(spec, seed):
    """Full-horizon trajectory on [-max_window, max_window] as breakpoint
    and value arrays: the one-row case of the block kernel.  Pure in
    (spec, seed)."""
    edges, values = _draw_block(spec, substream(seed), 1, whole=True)
    return _row_function(edges[0], values[0])


def _window_grid(spec):
    grid = []
    w = _first_window(spec)
    while w < spec.max_window:
        grid.append(w)
        w *= spec.window_growth
    grid.append(spec.max_window)
    return grid


def _truncate(breaks, values, window):
    i0 = np.searchsorted(breaks, -window, side="left")
    i1 = np.searchsorted(breaks, window, side="right")
    return StepFunction1D(breaks[i0:i1], values[i0 : i1 + 1])


def _simulate(spec, seed):
    """Returns (trajectory, argmin BoxUnion, boundary_flag).

    The argmin set is computed on the full generated horizon; the reported
    window is the smallest policy window strictly containing it.  Growing
    window_initial therefore never changes the argmin set of an accepted
    draw.
    """
    breaks, values = _build_trajectory(spec, seed)
    a_full = argmin_set(StepFunction1D(breaks, values))
    lo, hi = a_full.boxes[0].lo[0], a_full.boxes[-1].hi[0]
    for w in _window_grid(spec):
        if -w < lo and hi < w:
            return _truncate(breaks, values, w), a_full, False
    return _truncate(breaks, values, spec.max_window), a_full, True


def simulate_trajectory(spec, seed):
    """One trajectory plus a boundary flag; the flag reports that even the
    maximal window failed to contain the argmin set strictly."""
    trajectory, _, boundary = _simulate(spec, seed)
    return trajectory, boundary


_MAX_ATTEMPTS = 10_000


def _draw_accepted(spec, master_seed, rep):
    """Redraws a boundary replication from fresh one-row streams, attempt 1
    onward (attempt 0 is its row in its block); returns the accepted argmin
    set as a one-row IntervalRows and the redraw count."""
    w = spec.max_window
    for attempt in range(1, _MAX_ATTEMPTS):
        rng = substream(child_seed(master_seed, rep, attempt))
        accepted = IntervalRows.from_cells(*_argmin_cells(*_draw_block(spec, rng, 1)))
        if -w < accepted.lo[0] and accepted.hi[-1] < w:
            return accepted, attempt
    raise TooManyRedrawsError(f"replication {rep} exhausted {_MAX_ATTEMPTS} attempts")


def _predicate_worker(args, b, count):
    """The accepted argmin sets of the first `count` replications of block
    b as one (intervals, 4) array: per interval, its replication's global
    index, its lo and hi, and that replication's redraw count.  Rows run in
    replication order, intervals increasing within a row.

    Replication r is row r % _BLOCK of block r // _BLOCK.  A row whose
    argmin set does not lie strictly inside (-max_window, max_window) is a
    boundary row; among the first `count` it is redrawn through
    _draw_accepted, whose intervals replace the row's own."""
    spec, seed = args
    w = spec.max_window
    row, lo, hi = _argmin_cells(*_draw_block(spec, substream(seed, b), _BLOCK))
    n = int(np.searchsorted(row, count))
    cells = np.column_stack((row[:n] + b * _BLOCK, lo[:n], hi[:n], np.zeros(n)))
    # a row's first interval holds its smallest point, its last its largest
    boundary = np.zeros(_BLOCK, dtype=bool)
    boundary[row[:n][(lo[:n] <= -w) | (hi[:n] >= w)]] = True
    if not boundary.any():
        return cells
    redrawn = []
    for r in np.flatnonzero(boundary).tolist():
        accepted, attempt = _draw_accepted(spec, seed, b * _BLOCK + r)
        ends = np.broadcast_arrays(b * _BLOCK + r, accepted.lo, accepted.hi, attempt)
        redrawn.append(np.column_stack(ends))
    cells = np.concatenate([cells[~boundary[row[:n]]], *redrawn])
    return cells[np.argsort(cells[:, 0], kind="stable")]


# the benchmark tracer wraps this name
_extremes_worker = _predicate_worker


def _limit_job(spec, seed, replications):
    """The `run_chunks` job of the `_predicate_worker` intervals of
    replications 0..replications-1; read its array with `_accepted_sets`."""
    if replications < 1:
        raise ValueError("replications must be at least 1")
    return _predicate_worker, (spec, seed), replications, _BLOCK


def _accepted_sets(cells):
    """The argmin sets of a limit job's array as (IntervalRows, redraws per
    replication), once its boundary redraws are checked: above 1% of its
    replications they raise TooManyRedrawsError."""
    rows = IntervalRows.from_cells(cells[:, 0], cells[:, 1], cells[:, 2])
    redraws = cells[rows.starts, 3]
    total_redraws = int(redraws.sum())
    if total_redraws > 0.01 * redraws.size:
        raise TooManyRedrawsError(
            f"{total_redraws} boundary redraws exceed 1% of {redraws.size} replications"
        )
    return rows, redraws


# (key, sets) of the last limit sample that the public estimators drew:
# one tuple, read once, as argmin._last is.  The key is (spec, seed,
# replications, workers); workers is part of it so that a call with a new
# worker count runs its own blocks.  The kept arrays are read-only
_kept = (None, None)


def _limit_sets(spec, seed, replications, workers):
    """The `_accepted_sets` of replications 0..replications-1, drawn through
    `_limit_job`.  A call with the key of the previous call that returned
    returns its sets without drawing; a sample that raises is not kept."""
    global _kept
    key = (spec, seed, replications, workers)
    kept_key, sets = _kept
    if kept_key == key:
        return sets
    sets = _accepted_sets(run_chunks([_limit_job(spec, seed, replications)], workers)[0])
    rows, redraws = sets
    for a in (rows.lo, rows.hi, rows.starts, redraws):
        a.flags.writeable = False
    _kept = (key, sets)
    return sets


def sample_extreme_minimizers(spec, replications, seed, workers=1):
    """Smallest and largest minimizer per replication as a record array
    with fields xi_min, xi_max and redraws; boundary draws are discarded
    and redrawn, and redraws counts them.  The sample is the `_limit_sets`
    one that a capacity or containment estimate on the same (spec, seed,
    replications, workers) reads; the record array is a new copy."""
    rows, redraws = _limit_sets(spec, seed, replications, workers)
    return np.rec.fromarrays(
        (rows.smallest(), rows.largest(), redraws.astype(np.int64)),
        names="xi_min,xi_max,redraws",
    )


def _estimate(spec, kind, target, replications, seed, workers):
    # the set is checked before the kept sample is looked up or drawn
    if target.dim != 1:
        raise ValueError("dimension mismatch")
    rows, _ = _limit_sets(spec, seed, replications, workers)
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
    lines = ["rep,xi_min,xi_max,redraws"]
    # Python floats: their repr is the report format, a numpy scalar's is not
    columns = (samples.xi_min.tolist(), samples.xi_max.tolist(), samples.redraws.tolist())
    for rep, (lo, hi, redraws) in enumerate(zip(*columns)):
        lines.append(f"{rep},{lo!r},{hi!r},{redraws}")
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

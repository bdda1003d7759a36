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

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from stepargmin._scratch import kernel, scratch
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

    def sample(self, rng, n, out=None):
        """n draws, into the array `out` when given."""
        p = self.params
        out = np.empty(n) if out is None else out
        if self.family == "point":
            out.fill(p[0])
        elif self.family == "two_point":
            first = rng.random(n, out=out) < p[2]
            out.fill(p[1])
            np.copyto(out, p[0], where=first)
        elif self.family == "empirical":
            out[...] = rng.choice(np.asarray(p), size=n, replace=True)
        else:
            # p[0] + p[1] times a standard draw
            draw = rng.standard_normal if self.family == "gaussian" else rng.standard_exponential
            draw(n, out=out)
            out *= p[1]
            out += p[0]
        return out


def jump_law_from_token(token):
    return JumpLaw(*parse_law_token(token, InvalidSpecError))


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Rates, jump laws, and the adaptive-window policy of a two-sided
    compound Poisson process.  Positive jump means force the trajectory
    upward on both sides, so the argmin set is almost surely compact."""

    rate_right: float
    rate_left: float
    jump_right: JumpLaw
    jump_left: JumpLaw
    window_initial: float = 8.0
    window_growth: float = 2.0
    max_window: float = 64.0

    def __post_init__(self):
        for name in ("rate_right", "rate_left", "window_initial", "window_growth", "max_window"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be finite")
        if self.rate_right <= 0 or self.rate_left <= 0:
            raise InvalidSpecError("rates must be strictly positive")
        if self.jump_right.mean() <= 0 or self.jump_left.mean() <= 0:
            raise InvalidSpecError("jump laws must have strictly positive mean")
        if self.window_initial <= 0:
            raise InvalidSpecError("window_initial must be positive")
        if self.window_growth <= 1:
            raise InvalidSpecError("window_growth must exceed 1")
        if self.max_window < self.window_initial:
            raise InvalidSpecError("max_window must be at least window_initial")

    def to_text(self):
        lines = [
            f"rate_right = {self.rate_right!r}",
            f"rate_left = {self.rate_left!r}",
            f"jump_right = {self.jump_right.to_token()}",
            f"jump_left = {self.jump_left.to_token()}",
            f"window_initial = {self.window_initial!r}",
            f"window_growth = {self.window_growth!r}",
            f"max_window = {self.max_window!r}",
        ]
        return "\n".join(lines) + "\n"


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


def _proportion(flags, n):
    value = float(np.sum(flags)) / n
    return FunctionalEstimate(value, math.sqrt(value * (1.0 - value) / n), n)


# --- block simulation kernel ----------------------------------------------
#
# Replications are simulated in blocks of _BLOCK rows, and block b draws
# everything from substream(seed, b), so the draw of replication r depends
# on (spec, seed, r) only: not on the replication count, nor on how the
# replications are split between workers.

_BLOCK = 64


def _gap_count(rate, horizon):
    """Gaps drawn per row and side before any top-up: the mean arrival count
    over the horizon plus four standard deviations."""
    mean = rate * horizon
    return math.ceil(mean + 4.0 * math.sqrt(mean)) + 4


def _arrivals(rng, rate, law, horizon, times, sums):
    """Arrival times and running jump sums of one side, written into the
    (rows, width) arrays times and sums and returned.

    While some row's last arrival does not pass the horizon, every row is
    topped up from the same generator, and the times and sums are returned
    as new, wider arrays instead; arrival times beyond the horizon read
    +inf."""
    rows, width = times.shape
    gaps = rng.standard_exponential(out=scratch("_arrivals.gaps", times.shape))
    np.cumsum(gaps, axis=1, out=times)
    times /= rate
    jumps = law.sample(rng, (rows, width), out=gaps)
    while np.any(times[:, -1] <= horizon):
        more = np.cumsum(rng.standard_exponential((rows, width)), axis=1) / rate
        times = np.hstack([times, times[:, -1:] + more])
        jumps = np.hstack([jumps, law.sample(rng, (rows, width))])
    times[times > horizon] = INF
    return times, np.cumsum(jumps, axis=1, out=sums if jumps is gaps else None)


@kernel
def _draw_block(spec, rng, rows, reduce):
    """reduce(edges, values) of ``rows`` trajectories on [-max_window,
    max_window], as cell edges (rows, n + 2) and cell values (rows, n + 1);
    cell j of a row spans [edges[j], edges[j + 1]).  The two arrays are
    scratch, which the next block reuses, so reduce must not keep them.

    Left cells hold the partial sums of jumps strictly beyond the cell, the
    center cell spanning zero holds 0, right cells the running sums.  Cells
    of zero width, from arrivals beyond the horizon or coinciding arrival
    times, are not part of the trajectory."""
    w = spec.max_window
    n_left, n_right = _gap_count(spec.rate_left, w), _gap_count(spec.rate_right, w)
    edges = scratch("_draw_block.edges", (rows, n_left + n_right + 2))
    values = scratch("_draw_block.values", (rows, n_left + n_right + 1))
    # each side lands in its place unless it is topped up; the left side's
    # arrivals run outwards from the origin, so into reversed views
    right = _arrivals(
        rng, spec.rate_right, spec.jump_right, w, edges[:, n_left + 1 : -1], values[:, n_left + 1 :]
    )
    left = _arrivals(
        rng, spec.rate_left, spec.jump_left, w, edges[:, n_left:0:-1], values[:, n_left - 1 :: -1]
    )
    if right[0].shape[1] != n_right or left[0].shape[1] != n_left:
        (t_right, c_right), (t_left, c_left) = right, left
        n_left = t_left.shape[1]
        edges = np.empty((rows, n_left + t_right.shape[1] + 2))
        edges[:, 1 : n_left + 1] = t_left[:, ::-1]
        edges[:, n_left + 1 : -1] = t_right
        values = np.empty((rows, edges.shape[1] - 1))
        values[:, :n_left] = c_left[:, ::-1]
        values[:, n_left + 1 :] = c_right
    edges[:, 0] = -INF
    np.negative(edges[:, 1 : n_left + 1], out=edges[:, 1 : n_left + 1])
    edges[:, -1] = INF
    values[:, n_left] = 0.0
    return reduce(edges, values)


def _row_function(edges, values):
    """Breakpoints and values of one block row with its zero-width cells
    dropped, as a StepFunction1D takes them."""
    real = edges[:-1] < edges[1:]
    return edges[:-1][real][1:], values[real]


def _build_trajectory(spec, seed):
    """Full-horizon trajectory on [-max_window, max_window] as breakpoint
    and value arrays: the one-row case of the block kernel.  Pure in
    (spec, seed)."""
    return _draw_block(spec, substream(seed), 1, lambda e, v: _row_function(e[0], v[0]))


def _window_grid(spec):
    grid = []
    w = spec.window_initial
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
    onward (attempt 0 is its row in its block); returns (argmin BoxUnion,
    redraw count)."""
    for attempt in range(1, _MAX_ATTEMPTS):
        _, a, boundary = _simulate(spec, child_seed(master_seed, rep, attempt))
        if not boundary:
            return a, attempt
    raise TooManyRedrawsError(f"replication {rep} exhausted {_MAX_ATTEMPTS} attempts")


def _predicate_worker(args, b, count):
    """The first `count` replications of block b as one (count, 3 + len(menu))
    array: the smallest and largest minimizer of the accepted argmin set,
    its redraw count, then per (kind, 1-D union) of the menu whether the set
    meets the union as IntervalRows.meets says.

    Replication r is row r % _BLOCK of block r // _BLOCK.  A row whose
    argmin set does not lie strictly inside (-max_window, max_window) is a
    boundary row; among the first `count` it is redrawn through
    _draw_accepted."""
    spec, seed, menu = args
    w = spec.max_window
    row, a, z = _draw_block(spec, substream(seed, b), _BLOCK, _argmin_cells)
    block = IntervalRows.from_cells(row, a, z)
    redraws = np.zeros(_BLOCK, dtype=np.int64)
    boundary = np.flatnonzero((block.smallest() <= -w) | (block.largest() >= w))
    boundary = boundary[boundary < count]
    if boundary.size:
        keep = ~np.isin(row, boundary)
        reps, los, his = [row[keep]], [a[keep]], [z[keep]]
        for r in boundary.tolist():
            union, redraws[r] = _draw_accepted(spec, seed, b * _BLOCK + r)
            reps.append(np.full(len(union.boxes), r))
            los.append([box.lo[0] for box in union.boxes])
            his.append([box.hi[0] for box in union.boxes])
        rep = np.concatenate(reps)
        order = np.argsort(rep, kind="stable")
        block = IntervalRows.from_cells(
            rep[order], np.concatenate(los)[order], np.concatenate(his)[order]
        )
    flags = [block.meets(kind, union) for kind, union in menu]
    return np.column_stack([block.smallest(), block.largest(), redraws, *flags])[:count]


# the benchmark tracer wraps this name
_extremes_worker = _predicate_worker


def _limit_columns(spec, seed, replications, workers, menu=()):
    """The `_predicate_worker` columns of replications 0..replications-1.
    Menu sets must be 1-D, checked before anything is drawn; boundary
    redraws above 1% of the replications raise TooManyRedrawsError."""
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if any(union.dim != 1 for _, union in menu):
        raise ValueError("dimension mismatch")
    cols = run_chunks(_predicate_worker, (spec, seed, tuple(menu)), replications, workers, _BLOCK)
    total_redraws = int(cols[:, 2].sum())
    if total_redraws > 0.01 * replications:
        raise TooManyRedrawsError(
            f"{total_redraws} boundary redraws exceed 1% of {replications} replications"
        )
    return cols


def sample_extreme_minimizers(spec, replications, seed, workers=1):
    """Smallest and largest minimizer per replication as a record array
    with fields xi_min, xi_max and redraws; boundary draws are discarded
    and redrawn, and redraws counts them."""
    cols = _limit_columns(spec, seed, replications, workers)
    return np.rec.fromarrays(
        (cols[:, 0], cols[:, 1], cols[:, 2].astype(np.int64)), names="xi_min,xi_max,redraws"
    )


def _estimate(spec, kind, target, replications, seed, workers):
    cols = _limit_columns(spec, seed, replications, workers, ((kind, target),))
    return _proportion(cols[:, 3], replications)


def estimate_capacity(spec, e, replications, seed, workers=1):
    """Monte Carlo estimate of P(argmin set hits the closed 1-D union e)."""
    return _estimate(spec, "closed", e, replications, seed, workers)


def estimate_containment(spec, g, replications, seed, workers=1):
    """Monte Carlo estimate of P(argmin set lies inside the open 1-D union g)."""
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

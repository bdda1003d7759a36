"""Monte Carlo harnesses: hitting/containment probability bounds for the
rescaled breakpoint deviations against their limit processes, tail tables,
joint-versus-product independence checks, confidence-rectangle coverage,
and the rescaled-argmin membership report.

Every harness is a pure function of (config, master seed); replication
streams are indexed so worker count never changes a number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from stepargmin.argmin import (
    Box,
    BoxUnion,
    IntervalRows,
    OpenBox,
    OpenBoxUnion,
    _argmin_cells,
    _parse_interval,
)
from stepargmin.cpoisson import (
    OutOfDomainError,
    _binom_se,
    _job_sets,
    _limit_job,
    _predicate_worker,
    choose_interval_bounds,
    inverse_normal_cdf,
    normal_cdf,
)
from stepargmin.rng import child_seed, run_chunks, substream
from stepargmin.stepfit import (
    NoiseLaw,
    RegressionModelSpec,
    XLaw,
    _sections,
    derive_limit_spec,
    draw_rows,
    fit_rows,
)
from stepargmin.textfmt import convert, floats, parse_law_token, read_key_values

_TAG_DATA = 1
_TAG_LIMIT = 2
_TAG_COVER = 3
_TAG_BOOT = 4
_TAG_MEMBER = 5

# the benchmark tracer wraps this name; the limit jobs' argmin sets are
# drawn through it as cpoisson._predicate_worker
_limit_worker = _predicate_worker


class ConfigError(ValueError):
    pass


class BadBoundsError(ValueError):
    pass


def _fmt(v):
    return repr(float(v))


def gamma_of(rho, k):
    """Per-factor confidence level (1 - rho)^(1/(2k+1)) splitting a joint
    level across k breakpoint intervals and k+1 level intervals."""
    if not 0.0 < rho < 1.0:
        raise OutOfDomainError("rho must lie in (0, 1)")
    k = int(k)
    if k < 1:
        raise OutOfDomainError("k must be at least 1")
    return (1.0 - rho) ** (1.0 / (2 * k + 1))


def _inside(lo, hi, closed, v):
    """Whether v lies in the interval from lo to hi, closed or open as
    `closed` says; elementwise on arrays."""
    return np.where(closed, (lo <= v) & (v <= hi), (lo < v) & (v < hi))


def rectangle_columns(tau, alpha, n, bounds_tau, u, v):
    """Confidence rectangles of B fits, by column: open intervals
    (tau_j - b_j/n, tau_j - a_j/n) per breakpoint, closed intervals
    [alpha_i - v_i/sqrt(n), alpha_i - u_i/sqrt(n)] per level.  tau is
    (B, k), alpha, u and v are (B, k+1), bounds_tau holds one (a, b) per
    breakpoint.  Returns lo and hi as (B, 2k+1) arrays, breakpoints first,
    and the (2k+1,) mask of closed columns."""
    k = tau.shape[1]
    if len(bounds_tau) != k or u.shape != alpha.shape or v.shape != alpha.shape:
        raise BadBoundsError("bounds must match the parameter counts")
    for j, (a, b) in enumerate(bounds_tau):
        if not a < b:
            raise BadBoundsError(f"breakpoint bounds {j + 1}: need a < b")
    bad = ~np.all(u < v, axis=0)
    if np.any(bad):
        raise BadBoundsError(f"level bounds {int(np.argmax(bad)) + 1}: need u < v")
    a, b = np.array(bounds_tau, dtype=float).reshape(k, 2).T
    root = math.sqrt(n)
    lo = np.hstack((tau - b / n, alpha - v / root))
    hi = np.hstack((tau - a / n, alpha - u / root))
    return lo, hi, np.arange(2 * k + 1) >= k


@dataclass(frozen=True)
class SetTuple:
    """One row of the set menu: a 1-D union per breakpoint, closed or open
    as the subclass's `kind` says, and an optional box for the scaled level
    deviations (None means everything)."""

    name: str
    sets: tuple
    aux: tuple = None


class ClosedSetTuple(SetTuple):
    """A row asking whether the limit argmin set hits F_1 x ... x F_k."""

    kind = "closed"


class OpenSetTuple(SetTuple):
    """A row asking whether the limit argmin set lies inside G_1 x ... x G_k."""

    kind = "open"


@dataclass(frozen=True)
class VerificationConfig:
    model: RegressionModelSpec
    k: int
    n_grid: tuple
    replications_data: int
    replications_limit: int
    rho: float
    closed_sets: tuple
    open_sets: tuple
    master_seed: int
    mc_slack: float = 2.0
    rhs_mode: str = "derived"
    bootstrap_n: int = 0
    tail_grid: tuple = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    tail_threshold: float = 0.05
    coverage_n: int = 500
    coverage_replications: int = 1000
    coverage_tolerance: float = 0.03

    def __post_init__(self):
        if self.k != self.model.k:
            raise ConfigError("k must match the model")
        if not all(float(n).is_integer() for n in self.n_grid):
            raise ConfigError("n_grid entries must be finite whole numbers")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or grid[0] < 2 or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing from at least 2")
        object.__setattr__(self, "n_grid", grid)
        if self.replications_data < 1000 or self.replications_limit < 1000:
            raise ConfigError("replication counts must be at least 1000")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must lie in (0, 1)")
        if self.rhs_mode not in ("derived", "empirical-bootstrap"):
            raise ConfigError("rhs_mode must be 'derived' or 'empirical-bootstrap'")
        if self.rhs_mode == "empirical-bootstrap" and self.bootstrap_n <= max(self.n_grid):
            raise ConfigError("bootstrap_n must exceed the largest n in n_grid")
        tails = self.tail_grid
        if not tails:
            raise ConfigError("tail_grid must not be empty")
        if not all(map(math.isfinite, tails)) or any(a >= b for a, b in zip(tails, tails[1:])):
            raise ConfigError("tail_grid must be finite and strictly increasing")
        if not 0.0 <= self.tail_threshold <= 1.0:
            raise ConfigError("tail_threshold must lie in [0, 1]")
        for name in ("mc_slack", "coverage_tolerance"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and at least 0")
        if self.coverage_replications < 1 or self.coverage_n < 2:
            raise ConfigError("coverage_replications must be at least 1 and coverage_n at least 2")
        for st in self.menu:
            if len(st.sets) != self.k:
                raise ConfigError(f"{st.kind} tuple {st.name!r} needs {self.k} sets")
            if st.aux is not None and len(st.aux) != self.k + 1:
                raise ConfigError(f"{st.kind} tuple {st.name!r} aux needs {self.k + 1} intervals")

    @property
    def menu(self):
        """The closed tuples, then the open ones: the row order of every
        report."""
        return self.closed_sets + self.open_sets


# observations per block of replications: B = _BLOCK_CELLS // n datasets
# share one substream, one sort and the vectorized fit; each (B, n) float64
# array stays at 64 KB.  B is part of the stream layout: changing it
# changes every dataset
_BLOCK_CELLS = 8192


def _block_rows(n):
    return max(1, _BLOCK_CELLS // n)


def _fit_block(args, b, count):
    """(x, y, tau, alpha, sigma_hat): the first `count` datasets of block b
    as (count, n) arrays x and y, and their fits as `fit_rows` returns
    them.  Block b draws B = _BLOCK_CELLS // n datasets from
    substream(master, *path, b), x first, then the noise (`draw_rows`),
    and replication `rep` is row rep % B of block rep // B.  A block is
    drawn whole however many of its rows are kept, so a replication's
    dataset does not depend on the replication count."""
    model, k, n, master, path = args
    size = _block_rows(n)
    x, y = draw_rows(model, substream(master, *path, b), (size, n))
    x, y = x[:count], y[:count]
    return (x, y, *fit_rows(x, y, k))


def _fit_worker(args, b, count):
    """The fits of the first `count` replications of block b as one
    (count, 3k + 2) array: the columns are tau, alpha and sigma_hat."""
    return np.hstack(_fit_block(args, b, count)[2:])


def _fit_job(model, k, n, master, tag, reps):
    """The `run_chunks` job of the `_fit_worker` rows of `reps` datasets
    of size n on the data-side path (tag, n)."""
    return _fit_worker, (model, k, n, master, (tag, n)), reps, _block_rows(n)


def _deviations(model, k, n, rows):
    """Rescaled deviations xi and aux and the plug-in scales of fit rows."""
    taus, alphas, sigmas = (np.ascontiguousarray(a) for a in np.split(rows, [k, 2 * k + 1], axis=1))
    xi = n * (taus - np.asarray(model.true_tau)[None, :])
    aux = math.sqrt(n) * (alphas - np.asarray(model.true_alpha)[None, :])
    return xi, aux, sigmas


def _margins(st, xi, aux):
    """Per replication flags of menu row `st`: one array per breakpoint j
    (xi[:, j] in the j-th set), then one for the aux box (every scaled level
    deviation in its closed interval; all true without a box)."""
    margins = [
        IntervalRows.from_points(xi[:, j]).meets(st.kind, s) for j, s in enumerate(st.sets)
    ]
    in_box = np.ones(aux.shape[0], dtype=bool)
    for i, (lo, hi) in enumerate(st.aux or ()):
        in_box &= (aux[:, i] >= lo) & (aux[:, i] <= hi)
    return margins + [in_box]


def _product_with_se(means, reps):
    """Product of frequencies, each over `reps` replications, and its
    delta-method standard error."""
    prod = 1.0
    for mval in means:
        prod *= mval
    var = 0.0
    for j, mval in enumerate(means):
        rest = 1.0
        for l, other in enumerate(means):
            if l != j:
                rest *= other
        var += (_binom_se(mval, reps) * rest) ** 2
    return prod, math.sqrt(var)


def alpha_limit_sigmas(model):
    """Asymptotic scales of the rescaled level estimates when the true
    regression function is constant on each segment; None when a closed
    form is not available and a plug-in must be used instead."""
    if any(len(seg) > 1 for seg in model.segments):
        return None
    noise_var = model.noise.variance()
    edges = (-math.inf,) + model.true_tau + (math.inf,)
    sigmas = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass = model.x_law.cdf(hi) - model.x_law.cdf(lo)
        if mass <= 0:
            return None
        sigmas.append(math.sqrt(noise_var / mass))
    return tuple(sigmas)


def _aux_box_prob(box, sigmas):
    if box is None:
        return 1.0
    prob = 1.0
    for (lo, hi), sd in zip(box, sigmas):
        if sd == 0.0:
            prob *= 1.0 if lo <= 0.0 <= hi else 0.0
            continue
        upper = 1.0 if hi == math.inf else normal_cdf(hi / sd)
        lower = 0.0 if lo == -math.inf else normal_cdf(lo / sd)
        prob *= upper - lower
    return prob


@dataclass(frozen=True)
class InequalityRow:
    n: int
    kind: str
    name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    passed: object = None


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple
    mc_slack: float
    slack_violations: int
    passed: bool

    def to_csv(self):
        lines = ["n,kind,name,lhs,lhs_se,rhs,rhs_se,verdict"]
        for r in self.rows:
            verdict = "" if r.passed is None else ("pass" if r.passed else "fail")
            lines.append(
                f"{r.n},{r.kind},{r.name},{_fmt(r.lhs)},{_fmt(r.lhs_se)},"
                f"{_fmt(r.rhs)},{_fmt(r.rhs_se)},{verdict}"
            )
        return "\n".join(lines) + "\n"


def _limit_jobs(config):
    """Per breakpoint j, the `_limit_job` of limit process j on its own
    stream."""
    return [
        _limit_job(
            derive_limit_spec(config.model, j),
            child_seed(config.master_seed, _TAG_LIMIT, j),
            config.replications_limit,
        )
        for j in range(1, config.k + 1)
    ]


def verify_tables(config, workers=1):
    """(fits, rhs) of a verify run, from one `run_chunks` call whose jobs
    are the data fits of every n, then the k limit jobs or, under
    empirical-bootstrap, the one fit at bootstrap_n.

    fits is {n: (xi, aux, sigmas)}: rescaled deviations and plug-in level
    scales, one row per replication.  rhs holds per breakpoint j a (menu
    rows, replications) flag array: whether the limit argmin set (or the
    bootstrap deviation) hits the j-th set of a closed row, or lies inside
    that of an open row, each asked of the breakpoint's `IntervalRows`.
    A limit walk still uncertified at the jump cap raises
    UncertifiedWalkError."""
    model, k, master = config.model, config.k, config.master_seed
    jobs = [_fit_job(model, k, n, master, _TAG_DATA, config.replications_data) for n in config.n_grid]
    derived = config.rhs_mode == "derived"
    if derived:
        jobs += _limit_jobs(config)
    else:
        boot_n = config.bootstrap_n
        jobs.append(_fit_job(model, k, boot_n, master, _TAG_BOOT, config.replications_limit))
    results = run_chunks(jobs, workers)
    fits = {n: _deviations(model, k, n, r) for n, r in zip(config.n_grid, results)}
    rest = results[len(fits) :]
    if derived:
        # breakpoint j's limit argmin sets, replication r in row r
        sets = [_job_sets(a) for a in rest]
    else:
        sets = [IntervalRows.from_points(x) for x in _deviations(model, k, boot_n, rest[0])[0].T]
    return fits, [
        np.array([rows.meets(st.kind, st.sets[j]) for st in config.menu])
        for j, rows in enumerate(sets)
    ]


def _sigmas_for(config, fit_sigmas_at_largest):
    exact = alpha_limit_sigmas(config.model)
    if exact is not None:
        return exact
    return tuple(float(v) for v in np.mean(fit_sigmas_at_largest, axis=0))


def verify_limit_bounds(config, tables):
    """Empirical check that hitting/containment functionals of the limit
    argmin sets bound the deviation probabilities of the fitted breakpoints:
    closed-set rows must not exceed the capacity side, open-set rows must
    not fall below the containment side, judged at the largest sample size
    with a standard-error slack.  `tables` is the run's `verify_tables`."""
    reps = config.replications_data
    fits, limit_flags = tables
    n_max = max(config.n_grid)
    sigmas = _sigmas_for(config, fits[n_max][2])

    rows = []
    violations = 0
    for n in config.n_grid:
        xi, aux, _ = fits[n]
        for m, st in enumerate(config.menu):
            lhs = float(np.mean(np.logical_and.reduce(_margins(st, xi, aux))))
            lhs_se = _binom_se(lhs, reps)
            means = [float(np.mean(flags[m])) for flags in limit_flags]
            prod, prod_se = _product_with_se(means, config.replications_limit)
            p_aux = _aux_box_prob(st.aux, sigmas)
            rhs, rhs_se = prod * p_aux, prod_se * p_aux
            passed = None
            if n == n_max:
                slack = config.mc_slack * math.sqrt(lhs_se**2 + rhs_se**2)
                passed = lhs <= rhs + slack if st.kind == "closed" else lhs >= rhs - slack
                violations += 0 if passed else 1
            rows.append(InequalityRow(n, st.kind, st.name, lhs, lhs_se, rhs, rhs_se, passed))
    return InequalityReport(
        rows=tuple(rows),
        mc_slack=config.mc_slack,
        slack_violations=violations,
        passed=violations == 0,
    )


@dataclass(frozen=True)
class TailTable:
    rows: tuple
    threshold: float
    verdicts: tuple

    @property
    def passed(self):
        return all(v[2] for v in self.verdicts)

    def to_csv(self):
        lines = ["n,a,tail_prob"]
        for n, a, p in self.rows:
            lines.append(f"{n},{_fmt(a)},{_fmt(p)}")
        return "\n".join(lines) + "\n"


def tail_probability_table(config, tables):
    """Empirical survival probabilities of the sup-norm of the rescaled
    breakpoint deviations over the configured threshold grid.  `tables`
    is the run's `verify_tables`."""
    fits, _ = tables
    rows = []
    verdicts = []
    for n in config.n_grid:
        xi, _, _ = fits[n]
        sup = np.max(np.abs(xi), axis=1)
        for a in config.tail_grid:
            rows.append((n, float(a), float(np.mean(sup > a))))
        largest = float(np.mean(sup > config.tail_grid[-1]))
        verdicts.append((n, largest, largest <= config.tail_threshold))
    return TailTable(rows=tuple(rows), threshold=config.tail_threshold, verdicts=tuple(verdicts))


@dataclass(frozen=True)
class ProductFormRow:
    name: str
    kind: str
    joint: float
    joint_se: float
    product: float
    product_se: float

    @property
    def discrepancy(self):
        return abs(self.joint - self.product)


@dataclass(frozen=True)
class ProductFormTable:
    n: int
    rows: tuple

    @property
    def max_discrepancy(self):
        return max((r.discrepancy for r in self.rows), default=0.0)

    def to_csv(self):
        lines = ["name,kind,joint,joint_se,product,product_se,discrepancy"]
        for r in self.rows:
            lines.append(
                f"{r.name},{r.kind},{_fmt(r.joint)},{_fmt(r.joint_se)},"
                f"{_fmt(r.product)},{_fmt(r.product_se)},{_fmt(r.discrepancy)}"
            )
        return "\n".join(lines) + "\n"


def product_form_check(config, tables):
    """Joint probability versus the product of its marginals at the largest
    sample size, over the configured set menu; the same replication set
    feeds both sides.  `tables` is the run's `verify_tables`."""
    if config.k < 2:
        raise ConfigError("product-form check needs k >= 2")
    reps = config.replications_data
    n = max(config.n_grid)
    fits, _ = tables
    xi, aux, _ = fits[n]
    rows = []
    for st in config.menu:
        margins = _margins(st, xi, aux)
        joint = float(np.mean(np.logical_and.reduce(margins)))
        means = [float(np.mean(flags)) for flags in margins]
        product, product_se = _product_with_se(means, reps)
        rows.append(
            ProductFormRow(st.name, st.kind, joint, _binom_se(joint, reps), product, product_se)
        )
    return ProductFormTable(n=n, rows=tuple(rows))


@dataclass(frozen=True)
class CoverageReport:
    coverage: float
    target: float
    replications: int
    mean_widths: tuple
    covered: tuple
    bounds_tau: tuple
    gamma: float

    def passed(self, tolerance):
        return self.coverage >= self.target - tolerance

    def rows_csv(self):
        lines = ["rep,covered"]
        for rep, c in enumerate(self.covered):
            lines.append(f"{rep},{int(c)}")
        return "\n".join(lines) + "\n"

    def summary_text(self):
        lines = [
            f"coverage = {_fmt(self.coverage)}",
            f"target = {_fmt(self.target)}",
            f"replications = {self.replications}",
            f"gamma = {_fmt(self.gamma)}",
            f"mean_widths = {', '.join(_fmt(w) for w in self.mean_widths)}",
        ]
        return "\n".join(lines) + "\n"


def _coverage_worker(args, b, count):
    """The fits of block b of the coverage stream, as `_fit_worker` gives
    them for the data-side path (_TAG_COVER,)."""
    model, k, n, master = args
    return _fit_worker((model, k, n, master, (_TAG_COVER,)), b, count)


def _rectangle_coverage(model, n, fits, bounds_tau, z_lo, z_hi):
    """Per row of `_fit_worker` fits: whether the confidence rectangle of
    the fit covers the true parameters, as a bool array, and the
    rectangle's 2k + 1 widths, as a (rows, 2k + 1) array."""
    k = model.k
    tau, alpha, sigma = np.split(fits, [k, 2 * k + 1], axis=1)
    u = sigma * z_lo
    v = sigma * z_hi
    # degenerate plug-in scale: widen by a relative nudge so the rectangle
    # stays a valid interval
    kappa = 1e-9 * np.maximum(1.0, np.abs(alpha))
    flat = u == v
    u = np.where(flat, u - kappa, u)
    v = np.where(flat, v + kappa, v)
    rect_lo, rect_hi, closed = rectangle_columns(tau, alpha, n, bounds_tau, u, v)
    truth = np.array(model.true_tau + model.true_alpha)
    return np.all(_inside(rect_lo, rect_hi, closed, truth), axis=1), rect_hi - rect_lo


def coverage_experiment(config, workers=1):
    """Coverage of the confidence rectangle built from limit-process
    extreme-minimizer bounds and plug-in normal quantiles.  The coverage
    fits and the k limit samples run in one `run_chunks` call, the fits
    first, so the shorter limit tasks fill the tail of the pool."""
    k, n = config.k, config.coverage_n
    gamma = gamma_of(config.rho, k)
    z_lo = inverse_normal_cdf((1.0 - gamma) / 2.0)
    z_hi = inverse_normal_cdf((gamma + 1.0) / 2.0)
    args = (config.model, k, n, config.master_seed)
    fit_job = (_coverage_worker, args, config.coverage_replications, _block_rows(n))
    fits, *limits = run_chunks([fit_job, *_limit_jobs(config)], workers)
    bounds_tau = tuple(
        choose_interval_bounds(rows.smallest(), rows.largest(), gamma)
        for rows in map(_job_sets, limits)
    )
    covered, widths = _rectangle_coverage(config.model, n, fits, bounds_tau, z_lo, z_hi)
    return CoverageReport(
        coverage=float(np.mean(covered)),
        target=1.0 - config.rho,
        replications=config.coverage_replications,
        mean_widths=tuple(float(w) for w in np.mean(widths, axis=0)),
        covered=tuple(covered.tolist()),
        bounds_tau=bounds_tau,
        gamma=gamma,
    )


@dataclass(frozen=True)
class MembershipReport:
    n: int
    replications: int
    fraction_inside: float
    rows: tuple

    @property
    def all_inside(self):
        return self.fraction_inside == 1.0

    def to_csv(self):
        lines = ["rep,inside," + ",".join(f"t{j + 1}" for j in range(len(self.rows[0][2])))]
        for rep, inside, point in self.rows:
            lines.append(f"{rep},{int(inside)}," + ",".join(_fmt(v) for v in point))
        return "\n".join(lines) + "\n"


def _member(x, y, tau_ref, alpha, scale, points):
    """Per dataset r of the (B, n) arrays x and y: whether points[r] lies
    strictly inside the windows of its local landscape at levels alpha[r]
    and in its argmin set, the product of the sections' argmin intervals."""
    inside = np.ones(len(points), dtype=bool)
    for ((lo, hi), edges, values), p in zip(_sections(x, y, tau_ref, alpha, scale), points.T):
        row, a, b = _argmin_cells(edges, values)
        hit = (a <= p[row]) & (p[row] <= b)
        starts = IntervalRows.from_cells(row, a, b).starts
        inside &= (lo < p) & (p < hi) & np.logical_or.reduceat(hit, starts)
    return inside


def _membership_worker(args, b, count):
    """Per replication of the first `count` of block b: whether the
    rescaled deviation of its fitted breakpoints lies in the argmin set of
    its local landscape, then the k coordinates of that deviation, as one
    (count, k + 1) array."""
    model, k, n, master = args
    x, y, taus, alphas, _ = _fit_block((model, k, n, master, (_TAG_MEMBER,)), b, count)
    points = n * (taus - np.asarray(model.true_tau))
    return np.column_stack((_member(x, y, model.true_tau, alphas, n, points), points))


def membership_report(model, k, n, replications, master_seed, workers=1):
    """Checks per replication that the rescaled deviation of the fitted
    breakpoints lies in the argmin set of the local criterion landscape
    built at the true breakpoints with the fitted levels."""
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if k != len(model.true_tau):
        raise ValueError(f"k = {k} must equal the model's breakpoint count {len(model.true_tau)}")
    args = (model, k, n, master_seed)
    cols = run_chunks([(_membership_worker, args, replications, _block_rows(n))], workers)[0]
    return MembershipReport(
        n=n,
        replications=replications,
        fraction_inside=float(np.mean(cols[:, 0])),
        rows=tuple(
            (rep, bool(inside), tuple(point)) for rep, (inside, *point) in enumerate(cols.tolist())
        ),
    )


# --- configuration files -------------------------------------------------
#
# `key = value` lines as textfmt.read_key_values reads them.  Set menus:
#   set closed <name> = <F_1> | ... | <F_k> [@ <B_1> | ... | <B_{k+1}>]
#   set open   <name> = <G_1> | ... | <G_k> [@ ...]
# where each F is closed intervals `[lo,hi]` joined by ';', each G open
# intervals `(lo,hi)` joined by ';', and each B a closed interval or the
# word `full`.

_REQUIRED_KEYS = (
    "master_seed",
    "k",
    "n_grid",
    "replications_data",
    "replications_limit",
    "rho",
    "model.tau",
    "model.alpha",
    "model.x_law",
    "model.noise",
)

# VerificationConfig fields set by a key of the same name, and their kinds
_FIELD_KINDS = {
    "master_seed": int,
    "k": int,
    "n_grid": floats,
    "replications_data": int,
    "replications_limit": int,
    "rho": float,
    "mc_slack": float,
    "rhs_mode": str,
    "bootstrap_n": int,
    "tail_grid": floats,
    "tail_threshold": float,
    "coverage_n": int,
    "coverage_replications": int,
    "coverage_tolerance": float,
}

_MODEL_KEYS = ("model.tau", "model.alpha", "model.x_law", "model.noise", "model.segments")

_SET_KEY = re.compile(r"set (closed|open) \S+")


def _known_key(key):
    return key in _FIELD_KINDS or key in _MODEL_KEYS or _SET_KEY.fullmatch(key) is not None


# per kind: interval brackets, box type, union type and menu-row type
_SET_FORMS = {
    "closed": ("[]", Box, BoxUnion, ClosedSetTuple),
    "open": ("()", OpenBox, OpenBoxUnion, OpenSetTuple),
}


def _interval(token, kind):
    # the 1-D box of one interval token; a malformed token, and one that
    # reads as the empty set, raises ConfigError naming it
    brackets, box = _SET_FORMS[kind][:2]
    lo, hi = _parse_interval(token, brackets, ConfigError)
    interval = box((lo,), (hi,))
    if interval.is_empty:
        raise ConfigError(f"empty interval {token.strip()!r}")
    return interval


def parse_set_1d(text, kind):
    """The 1-D union of `kind` ('closed' or 'open') written as intervals
    joined by ';': '[lo,hi]' tokens for a closed union, '(lo,hi)' for an
    open one.  A malformed token, and one that reads as the empty set
    (reversed or NaN endpoints, an open interval with lo >= hi, a closed
    one at infinity), raises ConfigError naming it, as does a text with
    no interval."""
    boxes = tuple(_interval(t, kind) for t in text.split(";") if t.strip())
    if not boxes:
        raise ConfigError(f"no interval in set {text.strip()!r}")
    return _SET_FORMS[kind][2](1, boxes)


def _parse_aux(text, k):
    text = text.strip()
    if text == "full":
        return None
    parts = [p for p in text.split("|") if p.strip()]
    if len(parts) != k + 1:
        raise ConfigError(f"aux box needs {k + 1} intervals or 'full'")
    boxes = [_interval(p, "closed") for p in parts]
    return tuple(box.lo + box.hi for box in boxes)


def _parse_set_line(kind, name, body, k):
    if "@" in body:
        sets_part, aux_part = body.split("@", 1)
        aux = _parse_aux(aux_part, k)
    else:
        sets_part, aux = body, None
    parts = [p for p in sets_part.split("|") if p.strip()]
    if len(parts) != k:
        raise ConfigError(f"set {name!r} needs {k} component sets, got {len(parts)}")
    return _SET_FORMS[kind][3](name, tuple(parse_set_1d(p, kind) for p in parts), aux)


def _parse_segments(text):
    segs = []
    for part in text.split(";"):
        if part.strip():
            family, coeffs = parse_law_token(part, ConfigError)
            if family != "poly":
                raise ConfigError(
                    f"segment must look like 'poly(c0, c1, ...)', got {part.strip()!r}"
                )
            segs.append(coeffs)
    return tuple(segs)


def parse_verification_config(text):
    entries = read_key_values(text, _known_key, _REQUIRED_KEYS, ConfigError)
    fields = {
        key: convert(kind, entries[key], key, ConfigError)
        for key, kind in _FIELD_KINDS.items()
        if key in entries
    }
    tau = convert(floats, entries["model.tau"], "model.tau", ConfigError)
    alpha = convert(floats, entries["model.alpha"], "model.alpha", ConfigError)
    if "model.segments" in entries:
        segments = _parse_segments(entries["model.segments"])
    else:
        segments = tuple((a,) for a in alpha)
    model = RegressionModelSpec(
        segments=segments,
        x_law=XLaw(*parse_law_token(entries["model.x_law"], ConfigError)),
        noise=NoiseLaw(*parse_law_token(entries["model.noise"], ConfigError)),
        true_tau=tau,
        true_alpha=alpha,
    )
    menus = {"closed": [], "open": []}
    for key, body in entries.items():
        if _SET_KEY.fullmatch(key):
            _, kind, name = key.split()
            menus[kind].append(_parse_set_line(kind, name, body, fields["k"]))
    return VerificationConfig(
        model=model,
        closed_sets=tuple(menus["closed"]),
        open_sets=tuple(menus["open"]),
        **fields,
    )

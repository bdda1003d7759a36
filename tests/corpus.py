"""Shared random-function corpus and brute-force oracles for the tests.

The argmin oracle classifies every grid piece (cell, face, node) by
enumerating quadrant limits directly from the cell array; the fit oracle
enumerates every admissible breakpoint subset.  Both stay independent of
the library's own search paths.  `reference_cuts` is the k-jump dynamic
program with every suffix layer swept over its whole triangle, the float
arithmetic that the pruned `stepfit._cuts` must reproduce bit for bit.
`joint_membership` answers the membership question on the local
landscape's k-D grid, where the library checks one section at a time.
`long_walk_extremes` draws limit-process extreme minimizers from jump
walks of a fixed length, with no certificate and no time window.
The small builders at the end (`all_ge`, `build_rectangle`,
`dataset_to_csv`) are conveniences that only the tests call.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from stepargmin import stepfit
from stepargmin.argmin import INF, Box, BoxUnion, argmin_set, hits
from stepargmin.experiments import _inside, rectangle_columns
from stepargmin.stepfun import GE, GridFunction, QuadrantSpec, StepFunction1D

VALUE_POOL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
BREAK_LATTICE = np.arange(-6.0, 6.5, 0.5)


def random_step_function(rng, max_breaks=12):
    m = int(rng.integers(0, max_breaks + 1))
    bps = np.sort(rng.choice(BREAK_LATTICE, size=m, replace=False))
    values = rng.choice(VALUE_POOL, size=m + 1)
    return StepFunction1D(bps, values)


def random_grid_function(rng, dim, max_breaks=12):
    axes = []
    for _ in range(dim):
        m = int(rng.integers(1, max_breaks + 1))
        axes.append(np.sort(rng.choice(BREAK_LATTICE, size=m, replace=False)))
    cells = rng.choice(VALUE_POOL, size=tuple(a.size + 1 for a in axes))
    return GridFunction(tuple(axes), cells)


def random_function(rng, dim, max_breaks=12):
    if dim == 1 and rng.random() < 0.5:
        return random_step_function(rng, max_breaks)
    return random_grid_function(rng, dim, max_breaks)


def random_compact_function(rng, dim, max_breaks=6):
    """Random function whose argmin set is guaranteed compact: the outer
    shell of cells stays above a forced interior minimum."""
    axes = []
    for _ in range(dim):
        m = int(rng.integers(2, max(3, max_breaks + 1)))
        axes.append(np.sort(rng.choice(BREAK_LATTICE, size=m, replace=False)))
    shape = tuple(a.size + 1 for a in axes)
    cells = rng.choice(VALUE_POOL[1:], size=shape)
    interior = tuple(int(rng.integers(1, s - 1)) for s in shape)
    cells[interior] = VALUE_POOL[0]
    if dim == 1:
        return StepFunction1D(axes[0], cells)
    return GridFunction(tuple(axes), cells)


def random_shelled_function(rng, dim, max_breaks=5):
    """`random_function` with its outer shell of cells lifted above every
    pool value, so the argmin set is compact; ties among the inner cells
    make it a union of several boxes.  None when no cell is inner."""
    axes, cells = _axes_cells(random_function(rng, dim, max_breaks))
    if min(axis.size for axis in axes) < 2:
        return None
    cells = np.array(cells, dtype=float)
    shell = np.ones(cells.shape, dtype=bool)
    shell[tuple(slice(1, -1) for _ in axes)] = False
    cells[shell] += VALUE_POOL.max() - VALUE_POOL.min() + 1.0
    if dim == 1:
        return StepFunction1D(axes[0], cells)
    return GridFunction(tuple(axes), cells)


def _axes_cells(f):
    if isinstance(f, StepFunction1D):
        return (f.breakpoints,), f.values
    return f.axes, f.cells


def piece_representatives(axis):
    """One probe point per piece in the order cell, node, cell, node, ..."""
    if axis.size == 0:
        return np.array([0.0])
    reps = np.empty(2 * axis.size + 1)
    reps[1::2] = axis
    reps[0] = axis[0] - 1.0
    reps[-1] = axis[-1] + 1.0
    if axis.size > 1:
        reps[2:-1:2] = (axis[:-1] + axis[1:]) / 2.0
    return reps


def oracle_argmin(f):
    """Brute-force argmin oracle from quadrant-limit enumeration.

    Returns (expected box tuple, membership array over the piece grid,
    per-axis piece representatives).  A piece belongs to the argmin set
    when the minimum of the adjacent-cell values, one per quadrant
    direction, attains the global minimum.  In one dimension touching
    boxes are merged to the canonical interval form.
    """
    axes, cells = _axes_cells(f)
    cells = np.asarray(cells)
    dim = len(axes)
    sel = []
    for axis in axes:
        pieces = np.arange(2 * axis.size + 1)
        sel.append((pieces // 2, (pieces + 1) // 2))
    env = None
    for combo in itertools.product((0, 1), repeat=dim):
        gathered = cells[np.ix_(*[sel[i][combo[i]] for i in range(dim)])]
        env = gathered if env is None else np.minimum(env, gathered)
    inf_value = cells.min()
    member = env == inf_value

    boxes = []
    cell_member = member[tuple(slice(0, None, 2) for _ in range(dim))]
    for index in np.argwhere(cell_member):
        lo = []
        hi = []
        for axis, j in zip(axes, index):
            lo.append(axis[j - 1] if j > 0 else -INF)
            hi.append(axis[j] if j < axis.size else INF)
        boxes.append(Box(tuple(lo), tuple(hi)))
    if dim == 1:
        boxes = list(BoxUnion(1, tuple(boxes)).boxes)
    reps = [piece_representatives(axis) for axis in axes]
    return tuple(boxes), member, reps


def raster_membership(union, axes):
    """Boolean piece-grid membership implied by a closed box union, marked
    by locating each box's closure in the per-axis piece index ranges."""
    shape = tuple(2 * a.size + 1 for a in axes)
    grid = np.zeros(shape, dtype=bool)
    for box in union.boxes:
        slices = []
        for axis, lo, hi in zip(axes, box.lo, box.hi):
            start = 0 if lo == -INF else 2 * int(np.searchsorted(axis, lo)) + 1
            stop = (
                2 * axis.size
                if hi == INF
                else 2 * int(np.searchsorted(axis, hi)) + 1
            )
            slices.append(slice(start, stop + 1))
        grid[tuple(slices)] = True
    return grid


def union_membership(union, points):
    """Vectorized point membership in a closed box union."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if not union.boxes:
        return np.zeros(points.shape[0], dtype=bool)
    lo = np.array([b.lo for b in union.boxes])
    hi = np.array([b.hi for b in union.boxes])
    inside = (points[:, None, :] >= lo[None]) & (points[:, None, :] <= hi[None])
    return np.any(np.all(inside, axis=2), axis=1)


def point_union(point):
    """The closed set {point} as a one-box union."""
    point = tuple(float(p) for p in point)
    return BoxUnion(len(point), (Box(point, point),))


def joint_membership(data, tau_ref, alpha_ref, scale, point):
    """Whether point lies strictly inside the windows of the local
    landscape of `stepfit.rescaled_process` and in its argmin set, found
    on the k-D grid function that is the broadcast sum of the sections by
    `argmin_set` and tested with `hits`."""
    rp = stepfit.rescaled_process(data, tau_ref, alpha_ref, scale)
    k = len(rp.sections)
    cells = np.zeros(tuple(sec.values.size for sec in rp.sections))
    for j, sec in enumerate(rp.sections):
        cells = cells + sec.values.reshape([-1 if i == j else 1 for i in range(k)])
    joint = GridFunction(tuple(sec.breakpoints for sec in rp.sections), cells)
    in_window = all(lo < p < hi for (lo, hi), p in zip(rp.window, point))
    return in_window and hits(argmin_set(joint), point_union(point))


def block_sums(data):
    """(vals, cum_n, cum_s, cum_q): the distinct x of `data`, the count of
    observations before each and after the last, and the prefix sums of y
    and y² over them, in stable x order, with y centred at its middle
    order statistic as in `stepfit._prefix_sums`, which builds the same
    sums another way."""
    order = np.argsort(data.x, kind="stable")
    xs = data.x[order]
    ys = data.y[order]
    ys = ys - np.sort(ys)[ys.size // 2]
    vals, starts = np.unique(xs, return_index=True)
    cum_n = np.append(starts, xs.size).astype(np.int64)
    cum_s = np.concatenate(([0.0], np.cumsum(np.add.reduceat(ys, starts))))
    cum_q = np.concatenate(([0.0], np.cumsum(np.add.reduceat(ys * ys, starts))))
    return vals, cum_n, cum_s, cum_q


def exhaustive_fit(data, k):
    """Enumerates every admissible breakpoint subset; totals are folded from
    the trailing segment so exact-equality comparison against the dynamic
    program is meaningful; for the same reason the costs come from
    `block_sums`, the fit's prefix sums.  Returns (total cost,
    breakpoints)."""
    vals, cum_n, cum_s, cum_q = block_sums(data)
    m = vals.size

    def cost(i, j):
        n = cum_n[j + 1] - cum_n[i]
        s = cum_s[j + 1] - cum_s[i]
        q = cum_q[j + 1] - cum_q[i]
        return q - (s * s) / n

    best = None
    for combo in itertools.combinations(range(m - 1), k):
        total = cost(combo[-1] + 1 if combo else 0, m - 1)
        for lvl in range(len(combo) - 1, -1, -1):
            lo = combo[lvl - 1] + 1 if lvl > 0 else 0
            total = cost(lo, combo[lvl]) + total
        key = (float(total), combo)
        if best is None or key < best:
            best = key
    total, combo = best
    return total, tuple(float(vals[c]) for c in combo)


def cost_row(s, cum_n, cum_s, cum_q):
    """Within-segment squared deviation of blocks s..c for every c >= s,
    from prefix sums: the expression of `stepfit._cost`, so its costs are
    the fit's bit for bit."""
    n = cum_n[s + 1 :] - cum_n[s]
    tot = cum_s[s + 1 :] - cum_s[s]
    sq = cum_q[s + 1 :] - cum_q[s]
    return sq - (tot * tot) / n


def reference_suffix_layer(nxt, cmax, cum_n, cum_s, cum_q):
    """out[s] = min over s <= c <= cmax of cost(s, c) + nxt[c + 1], and inf
    for s > cmax, over every column of the triangle, in row chunks of
    `stepfit._CHUNK_CELLS` cells."""
    out = np.full(nxt.shape, np.inf)
    lead = nxt.size // nxt.shape[-1]
    r0 = 0
    while r0 <= cmax:
        r1 = min(cmax + 1, r0 + max(1, stepfit._CHUNK_CELLS // (lead * (cmax + 1 - r0))))
        rows = slice(r0, r1)
        cols = slice(r0 + 1, cmax + 2)
        n = cum_n[None, cols] - cum_n[rows, None]
        tot = cum_s[..., None, cols] - cum_s[..., rows, None]
        cost = cum_q[..., None, cols] - cum_q[..., rows, None]
        tot *= tot
        with np.errstate(divide="ignore", invalid="ignore"):
            tot /= n
        cost -= tot
        cost[..., n <= 0] = np.inf
        cost += nxt[..., None, cols]
        out[..., rows] = cost.min(axis=-1)
        r0 = r1
    return out


def reference_cuts(cum_n, cum_s, cum_q, k):
    """`stepfit._cuts` without pruning: the full suffix layers, then the
    first minimum of every cut's candidates."""
    rows, m = cum_s.shape[0], cum_n.size - 1
    tail_n = cum_n[m] - cum_n[:m]
    tail_s = cum_s[:, m:] - cum_s[:, :m]
    tail_q = cum_q[:, m:] - cum_q[:, :m]
    suffix = {k: tail_q - (tail_s * tail_s) / tail_n}
    for j in range(k - 1, 0, -1):
        suffix[j] = reference_suffix_layer(suffix[j + 1], m - 1 - (k - j), cum_n, cum_s, cum_q)
    cuts = np.empty((rows, k), dtype=np.int64)
    s = np.zeros((rows, 1), dtype=np.int64)
    for j in range(k):
        cmax = m - 1 - (k - j)
        ends = slice(1, cmax + 2)
        cnt = cum_n[None, ends] - cum_n[s]
        tot = cum_s[:, ends] - np.take_along_axis(cum_s, s, axis=1)
        sq = cum_q[:, ends] - np.take_along_axis(cum_q, s, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = sq - (tot * tot) / cnt + suffix[j + 1][:, ends]
        cand[cnt <= 0] = np.inf
        cuts[:, j] = np.argmin(cand, axis=1)
        s = cuts[:, j, None] + 1
    return cuts


def _attained(law, rows, length, rng):
    """Per row of `rows` jump walks of `length` jumps: (low, first, last),
    low = min(0, S_1, ..., S_length) and the first and last index j >= 1
    with S_j == low, 0 for both where no jump sum attains low."""
    sums = np.cumsum(law.sample(rng, (rows, length)), axis=1)
    low = np.minimum(sums.min(axis=1), 0.0)
    hit = sums == low[:, None]
    some = hit.any(axis=1)
    first = np.where(some, np.argmax(hit, axis=1) + 1, 0)
    last = np.where(some, length - np.argmax(hit[:, ::-1], axis=1), 0)
    return low, first, last


def long_walk_extremes(spec, rows, length, rng, block=64):
    """Smallest and largest minimizer of `rows` trajectories of the
    compound Poisson `spec`, each side a walk of `length` jumps: no
    certificate and no time window.  An argmin set's ends are arrival
    times at indices where a walk attains the row's minimum, and the time
    of arrival j is a Gamma(j) variate over the rate, so only those times
    are drawn.  Blocks of `block` rows keep the arrays small."""
    xi_min, xi_max = [], []
    for start in range(0, rows, block):
        n = min(block, rows - start)
        sides = []
        for law, rate in ((spec.jump_left, spec.rate_left), (spec.jump_right, spec.rate_right)):
            low, first, last = _attained(law, n, length, rng)
            # T_first, then T_(last + 1); T_0 = 0, so a side that attains
            # nothing reads T_1 as its second time
            t_first = rng.standard_gamma(first.astype(float))
            t_after = t_first + rng.standard_gamma((last + 1 - first).astype(float))
            sides.append((low, first > 0, t_first / rate, t_after / rate))
        (low_l, at_l, first_l, after_l), (low_r, at_r, first_r, after_r) = sides
        low = np.minimum(low_l, low_r)
        at_l &= low_l == low
        at_r &= low_r == low
        # the origin's cell (-T'_1, T_1) is minimal when low is 0
        origin = low == 0.0
        xi_min.append(np.where(at_l | origin, -after_l, first_r))
        xi_max.append(np.where(at_r | origin, after_r, -first_l))
    return np.concatenate(xi_min), np.concatenate(xi_max)


def all_ge(dim):
    """The quadrant spec ('>=',) * dim, whose limit is the value itself."""
    return QuadrantSpec((GE,) * dim)


@dataclass(frozen=True)
class RectInterval:
    lo: float
    hi: float
    closed: bool

    def contains(self, v):
        return bool(_inside(self.lo, self.hi, self.closed, v))

    @property
    def width(self):
        return self.hi - self.lo


def build_rectangle(fit, n, bounds_tau, bounds_alpha):
    """`rectangle_columns` for one fit, with its level bounds (u_i, v_i)
    in `bounds_alpha`, as a list of intervals."""
    u, v = np.array(bounds_alpha, dtype=float).reshape(-1, 2).T[:, None]
    lo, hi, closed = rectangle_columns(
        np.array([fit.tau], dtype=float), np.array([fit.alpha], dtype=float), n, bounds_tau, u, v
    )
    return [RectInterval(float(a), float(b), bool(c)) for a, b, c in zip(lo[0], hi[0], closed)]


def dataset_to_csv(data):
    lines = ["x,y"]
    for xv, yv in zip(data.x, data.y):
        lines.append(f"{float(xv)!r},{float(yv)!r}")
    return "\n".join(lines) + "\n"

"""Exact argmin sets of piecewise-constant functions, represented as finite
unions of closed axis-aligned boxes, plus the set predicates built on them.

A point belongs to the argmin set when the minimum over its quadrant limits
attains the global infimum.  For a piecewise-constant function the quadrant
limits at t are exactly the values of the cells whose closure contains t, so
the argmin set is the union of the closures of the cells carrying the minimal
value.  All comparisons are exact; no tolerances enter set membership.

Closed sets serve the capacity bound (hits F), open ones the containment
bound (lies inside G).  Both kinds of box share one definition of their
ends, and both kinds of union one core; the closed union adds its
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stepargmin.stepfun import GridFunction

INF = float("inf")


class EmptySetError(ValueError):
    """Raised when an operation needs a nonempty set."""


class UnboundedSetError(ValueError):
    """Raised when a lexicographic extreme would sit at infinity."""


class NonCompactError(ValueError):
    """Raised when a check requires a compact argmin set."""


@dataclass(frozen=True, slots=True)
class _Ends:
    """Ends of a box, closed or open: float tuples of equal, nonzero length."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be nonempty tuples of equal length")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.lo)


@dataclass(frozen=True, slots=True)
class Box(_Ends):
    """Closed box: every finite endpoint is included."""

    @property
    def is_empty(self):
        return any(
            not (lo <= hi and lo < INF and hi > -INF)
            for lo, hi in zip(self.lo, self.hi)
        )

    @property
    def bounded(self):
        # NaN fails both comparisons, so it counts as unbounded
        return all(-INF < v < INF for v in self.lo + self.hi)

    def contains_point(self, point):
        return all(lo <= p <= hi for lo, p, hi in zip(self.lo, point, self.hi))

    def intersect(self, other):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        box = Box(lo, hi)
        return None if box.is_empty else box


def _nested(inner, outer):
    # subset test for a nonempty inner box
    return all(o <= s for o, s in zip(outer.lo, inner.lo)) and all(
        s <= o for s, o in zip(inner.hi, outer.hi)
    )


def _float_box(lo, hi):
    # constructor bypass for tuples of Python floats of equal nonzero length
    box = object.__new__(Box)
    object.__setattr__(box, "lo", lo)
    object.__setattr__(box, "hi", hi)
    return box


def _point_tuple(point, dim):
    point = tuple(float(p) for p in np.atleast_1d(np.asarray(point, dtype=float)))
    if len(point) != dim:
        raise ValueError("dimension mismatch")
    return point


def _merge_intervals(boxes):
    ordered = sorted(boxes, key=lambda b: (b.lo[0], b.hi[0]))
    merged = []
    for box in ordered:
        if merged and box.lo[0] <= merged[-1].hi[0]:
            prev = merged.pop()
            merged.append(Box(prev.lo, (max(prev.hi[0], box.hi[0]),)))
        else:
            merged.append(box)
    return merged


def _eliminate_subsets(boxes):
    # every box here is nonempty, so the subset test skips is_empty
    kept = []
    for i, box in enumerate(boxes):
        redundant = any(
            _nested(box, other) and not (_nested(other, box) and j > i)
            for j, other in enumerate(boxes)
            if j != i
        )
        if not redundant:
            kept.append(box)
    return kept


@dataclass(frozen=True)
class _Union:
    """Finite union of boxes of one kind: empty boxes are dropped, the rest
    must have the union's dimension."""

    dim: int
    boxes: tuple

    def __post_init__(self):
        boxes = tuple(b for b in self.boxes if not b.is_empty)
        for b in boxes:
            if b.dim != self.dim:
                raise ValueError("box dimension mismatch")
        object.__setattr__(self, "boxes", boxes)

    @property
    def is_empty(self):
        return not self.boxes

    def contains_point(self, point):
        point = _point_tuple(point, self.dim)
        return any(b.contains_point(point) for b in self.boxes)


@dataclass(frozen=True)
class BoxUnion(_Union):
    """Normalized finite union of closed boxes.

    In one dimension overlapping or touching intervals are merged into
    maximal ones; in higher dimensions only boxes contained in another box
    are dropped.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.dim == 1:
            boxes = _merge_intervals(self.boxes)
        else:
            boxes = _eliminate_subsets(self.boxes)
        boxes = tuple(sorted(boxes, key=lambda b: (b.lo, b.hi)))
        object.__setattr__(self, "boxes", boxes)

    @property
    def bounded(self):
        return all(b.bounded for b in self.boxes)

    def to_text(self):
        def fmt(v):
            if v == INF:
                return "inf"
            if v == -INF:
                return "-inf"
            return repr(float(v))

        lines = [
            " ".join(f"[{fmt(lo)},{fmt(hi)}]" for lo, hi in zip(b.lo, b.hi))
            for b in self.boxes
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_interval(token, brackets="[]", error=ValueError):
    """(lo, hi) of a token such as '[lo,hi]' or '(lo,hi)', with the given
    bracket pair; a malformed token raises ``error`` naming the token."""
    token = token.strip()
    parts = token[1:-1].split(",")
    if token[:1] + token[-1:] != brackets or len(parts) != 2:
        raise error(f"expected interval '{brackets[0]}lo,hi{brackets[1]}', got {token!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise error(f"bad number in interval {token!r}") from None


def box_union_from_text(text, dim=None):
    boxes = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        pairs = [_parse_interval(tok) for tok in line.split()]
        boxes.append(Box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    if boxes:
        if dim not in (None, boxes[0].dim):
            raise ValueError("dimension mismatch")
        dim = boxes[0].dim
    elif dim is None:
        raise ValueError("dimension required for an empty union")
    return BoxUnion(dim, tuple(boxes))


@dataclass(frozen=True, slots=True)
class OpenBox(_Ends):
    """Box open in every coordinate."""

    @property
    def is_empty(self):
        # NaN fails every comparison, so a NaN end empties the box
        return any(not lo < hi for lo, hi in zip(self.lo, self.hi))

    def contains_point(self, point):
        return all(lo < p < hi for lo, p, hi in zip(self.lo, point, self.hi))


@dataclass(frozen=True)
class OpenBoxUnion(_Union):
    """Finite union of open boxes, kept in the order given."""


# --- 1-D interval rows ------------------------------------------------------
#
# One kernel answers every 1-D set question: the argmin sets of many step
# functions at once, and the data points of a sample, each the closed set
# {x}, are rows of flat closed intervals.


def _argmin_cells(edges, values):
    """Argmin set of every row as flat closed intervals (row, lo, hi), in
    row order and increasing within a row: the closures of the minimal
    cells of positive width, touching closures merged.  Cell j of a row
    spans [edges[j], edges[j + 1])."""
    lo_edges, hi_edges = edges[:, :-1], edges[:, 1:]
    # cells of no width take no part
    masked = values.copy()
    np.copyto(masked, INF, where=lo_edges >= hi_edges)
    # flat indices run in row order, as np.nonzero's pairs do, and come
    # several times faster on a wide block
    minimal = np.flatnonzero(masked == masked.min(axis=1, keepdims=True))
    row, col = np.divmod(minimal, values.shape[1])
    lo = lo_edges[row, col]
    hi = hi_edges[row, col]
    first = np.ones(row.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (lo[1:] != hi[:-1])
    last = np.append(first[1:], True)
    return row[first], lo[first], hi[last]


def _open_components(g):
    """Connected components of an open 1-D union as endpoint arrays; open
    intervals that only touch leave their common end uncovered."""
    comps = []
    for lo, hi in sorted((b.lo[0], b.hi[0]) for b in g.boxes):
        if comps and lo < comps[-1][1]:
            comps[-1][1] = max(comps[-1][1], hi)
        else:
            comps.append([lo, hi])
    ends = np.array(comps, dtype=float).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


@dataclass(frozen=True)
class IntervalRows:
    """Closed 1-D sets of consecutive rows as flat intervals: row i owns
    entries starts[i] up to starts[i + 1] of lo and hi, increasing and
    pairwise disjoint.  Every row is nonempty."""

    lo: np.ndarray
    hi: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_cells(cls, row, lo, hi):
        """From intervals sorted by row, every row present."""
        return cls(lo, hi, np.flatnonzero(np.diff(row, prepend=-1)))

    @classmethod
    def from_points(cls, x):
        """Row i is the single point [x_i, x_i]."""
        x = np.asarray(x, dtype=float)
        return cls(x, x, np.arange(x.size))

    def smallest(self):
        return self.lo[self.starts]

    def largest(self):
        return self.hi[np.append(self.starts[1:], self.hi.size) - 1]

    def meets(self, kind, union):
        """Per row: the set hits the closed 1-D union (kind "closed") or
        lies inside the open 1-D union (kind "open").  An infinite end of
        an interval is inside a component that is infinite on the same
        side."""
        if union.dim != 1:
            raise ValueError("dimension mismatch")
        lo = self.lo[:, None]
        hi = self.hi[:, None]
        if kind == "closed":
            a = np.array([b.lo[0] for b in union.boxes])
            b = np.array([b.hi[0] for b in union.boxes])
            hit = np.maximum(lo, a) <= np.minimum(hi, b)
            return np.logical_or.reduceat(hit.any(axis=1), self.starts)
        a, b = _open_components(union)
        inside = ((a < lo) | (a == -INF)) & ((hi < b) | (b == INF))
        return np.logical_and.reduceat(inside.any(axis=1), self.starts)


def _prenormalized_union(dim, boxes):
    # constructor bypass for box lists already in canonical form: nonempty,
    # sorted by (lo, hi), and pairwise non-nested
    union = object.__new__(BoxUnion)
    object.__setattr__(union, "dim", dim)
    object.__setattr__(union, "boxes", tuple(boxes))
    return union


# (function, argmin set) of the last build: one tuple, read once, so a
# thread race can only cost a rebuild.  Functions and unions are immutable,
# so a kept set stays the answer
_last = (None, None)


def argmin_set(f):
    """Exact argmin set as a normalized BoxUnion.

    The result is the union of the closures of all cells attaining the
    infimum; closures enter because a boundary point reaches the minimal
    cell through one of its quadrant limits.  It can be unbounded, e.g. the
    whole space for a constant function.  A call on the function object of
    the previous call returns the previous set itself; any other call
    builds a new one, so a pass over many functions builds every set again
    on the next pass.
    """
    global _last
    if not isinstance(f, GridFunction):
        raise TypeError("argmin_set expects a GridFunction")
    last_f, last_set = _last
    if f is last_f:
        return last_set
    a = _build_argmin_set(f)
    _last = (f, a)
    return a


def _build_argmin_set(f):
    if f.dim == 1:
        # the kernel's intervals are disjoint and increasing: canonical form
        edges = np.concatenate(([-INF], f.axes[0], [INF]))
        _, lo, hi = _argmin_cells(edges[None], f.cells[None])
        boxes = (_float_box((l,), (h,)) for l, h in zip(lo.tolist(), hi.tolist()))
        return _prenormalized_union(1, boxes)
    index = np.argwhere(f.cells == f.cells.min()).T
    lo = np.column_stack([np.append(-INF, axis)[j] for axis, j in zip(f.axes, index)])
    hi = np.column_stack([np.append(axis, INF)[j] for axis, j in zip(f.axes, index)])
    # tolist rows are Python floats of length dim, all that the Box
    # constructor would check; closures of distinct cells never nest and
    # argwhere emits them in lexicographic order, so normalization would
    # be a no-op
    boxes = (_float_box(tuple(l), tuple(h)) for l, h in zip(lo.tolist(), hi.tolist()))
    return _prenormalized_union(f.dim, boxes)


def _kept(union, name, build):
    # the extreme `name` of the union, built on first use and then kept in
    # the instance dict, which the dataclass's eq and repr never read; a
    # raised error is not kept
    kept = vars(union)
    if name not in kept:
        kept[name] = build(union)
    return kept[name]


def sargmin(union):
    """Lexicographically smallest point: filter boxes coordinate by
    coordinate, keeping those that reach the running minimum.  Computed
    once per union and kept on it."""
    return _kept(union, "sargmin", _smallest)


def largmin(union):
    """Lexicographically largest point (mirror image of sargmin), computed
    once per union and kept on it."""
    return _kept(union, "largmin", _largest)


def _smallest(union):
    if union.is_empty:
        raise EmptySetError("sargmin of an empty set")
    boxes = union.boxes
    coords = []
    for i in range(union.dim):
        m = min(b.lo[i] for b in boxes)
        if m == -INF:
            raise UnboundedSetError(f"coordinate {i + 1} is unbounded below")
        boxes = [b for b in boxes if b.lo[i] == m]
        coords.append(m)
    return tuple(coords)


def _largest(union):
    if union.is_empty:
        raise EmptySetError("largmin of an empty set")
    boxes = union.boxes
    coords = []
    for i in range(union.dim):
        m = max(b.hi[i] for b in boxes)
        if m == INF:
            raise UnboundedSetError(f"coordinate {i + 1} is unbounded above")
        boxes = [b for b in boxes if b.hi[i] == m]
        coords.append(m)
    return tuple(coords)


def hits(a, e):
    """True iff the two closed unions intersect."""
    if a.dim != e.dim:
        raise ValueError("dimension mismatch")
    # every box of a BoxUnion is nonempty, lo <= hi with lo < INF and
    # hi > -INF on each axis, so the intersection of two of them is
    # nonempty iff max(lo) <= min(hi) on each axis
    return any(
        all(max(p, q) <= min(r, s) for p, q, r, s in zip(ba.lo, be.lo, ba.hi, be.hi))
        for ba in a.boxes
        for be in e.boxes
    )


def closed_complement(g):
    """Complement of an open box union as a closed BoxUnion.

    Folds one open box at a time: its complement is a union of closed
    half-space slabs, and the running complement is intersected with it.
    """
    dim = g.dim
    current = [Box((-INF,) * dim, (INF,) * dim)]
    for open_box in g.boxes:
        slabs = []
        for i in range(dim):
            if open_box.lo[i] > -INF:
                lo = [-INF] * dim
                hi = [INF] * dim
                hi[i] = open_box.lo[i]
                slabs.append(Box(tuple(lo), tuple(hi)))
            if open_box.hi[i] < INF:
                lo = [-INF] * dim
                hi = [INF] * dim
                lo[i] = open_box.hi[i]
                slabs.append(Box(tuple(lo), tuple(hi)))
        pieces = []
        for box in current:
            for slab in slabs:
                inter = box.intersect(slab)
                if inter is not None:
                    pieces.append(inter)
        current = _eliminate_subsets(pieces)
    return BoxUnion(dim, tuple(current))


def _covered(lo, hi, boxes, start):
    """True iff the closed box [lo, hi] lies in the union of the open boxes
    boxes[start:].

    Open boxes before the first one that meets the closed box hold none of
    its points, so only that one, the piece, is peeled: on each axis in
    turn, the slabs of the closed box at or below the piece's finite lower
    face and at or above its finite upper face must lie in the later open
    boxes, and the closed box is then clipped to the piece's closed range
    on that axis, so the slabs overlap only on faces.  A point outside the
    piece lies in a slab of the first axis on which it leaves the piece's
    open range.  An infinite end counts as inside a piece that is infinite
    on the same side; a NaN face meets nothing.
    """
    for j in range(start, len(boxes)):
        piece = boxes[j]
        if all(a < h and l < b for a, b, l, h in zip(piece.lo, piece.hi, lo, hi)):
            break
    else:
        return False
    lo, hi = list(lo), list(hi)
    for i, (a, b) in enumerate(zip(piece.lo, piece.hi)):
        if -INF < a and lo[i] <= a:
            slab = hi.copy()
            slab[i] = a
            if not _covered(lo, slab, boxes, j + 1):
                return False
            lo[i] = a
        if b < INF and b <= hi[i]:
            slab = lo.copy()
            slab[i] = b
            if not _covered(slab, hi, boxes, j + 1):
                return False
            hi[i] = b
    return True


def contained_in_open(a, g):
    """True iff the closed union lies inside the open union: every box of a
    passes the box-difference recursion `_covered` over the boxes of g.
    Exact in every dimension, and never builds the closed complement.
    """
    if a.dim != g.dim:
        raise ValueError("dimension mismatch")
    return all(_covered(b.lo, b.hi, g.boxes, 0) for b in a.boxes)


def lower_orthant_closed(x):
    x = tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))
    return BoxUnion(len(x), (Box((-INF,) * len(x), x),))


def lower_orthant_open(x):
    x = tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))
    return OpenBoxUnion(len(x), (OpenBox((-INF,) * len(x), x),))


def orthant_checks(f, x):
    """Four orthant facts about the argmin set A of f at the point x:

    (A hits (-inf, x],  sargmin(A) <= x,  A inside (-inf, x),  largmin(A) < x)

    sargmin(A) <= x implies that A hits (-inf, x], and A inside (-inf, x)
    implies largmin(A) < x; in one dimension the converses hold as well,
    in two or three they can fail, since the lexicographic extremes need
    not be the coordinatewise ones.  Both orthants are single boxes, so A
    hits (-inf, x] iff some box of A has lo <= x, and lies inside
    (-inf, x) iff every box has hi < x, coordinatewise.

    Calls on the same f at several points, one after another, share one
    A from `argmin_set`'s slot and the extremes kept on it, so each call
    after the first costs only the orthant tests.
    """
    a = argmin_set(f)
    if a.is_empty or not a.bounded:
        raise NonCompactError("argmin set must be compact and nonempty")
    x = _point_tuple(x, a.dim)
    smallest = sargmin(a)
    largest = largmin(a)
    hit_lower = any(all(lo <= xi for lo, xi in zip(b.lo, x)) for b in a.boxes)
    small_le = all(s <= xi for s, xi in zip(smallest, x))
    inside_open = all(all(hi < xi for hi, xi in zip(b.hi, x)) for b in a.boxes)
    large_lt = all(l < xi for l, xi in zip(largest, x))
    return (hit_lower, small_le, inside_open, large_lt)

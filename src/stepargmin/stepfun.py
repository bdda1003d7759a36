"""Piecewise-constant right-continuous functions on rectangular grids in one
to three dimensions; a step function on the line is the 1-D grid function.

Cells follow the half-open convention [b[i-1], b[i]) with infinite outer
tails, so right-continuity in every coordinate holds by construction and
every orthant-directional limit exists and equals the value of an adjacent
cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

LT = "<"
GE = ">="

_SIDE = {LT: "left", GE: "right"}


def _readonly(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_axis(axis):
    if axis.ndim != 1:
        raise ValueError("axis breakpoints must be one-dimensional")
    if not np.isfinite(axis).all():
        raise ValueError("axis breakpoints must be finite")
    if not (axis[:-1] < axis[1:]).all():
        raise ValueError("axis breakpoints must be strictly increasing")


@dataclass(frozen=True)
class QuadrantSpec:
    """Tuple of per-coordinate relations, each '<' or '>=', selecting the
    orthant from which a limit is taken."""

    relations: tuple

    def __post_init__(self):
        rels = tuple(self.relations)
        if not rels or any(r not in (LT, GE) for r in rels):
            raise ValueError("relations must be a nonempty tuple over {'<', '>='}")
        object.__setattr__(self, "relations", rels)

    @property
    def dim(self):
        return len(self.relations)


def all_quadrants(dim):
    """All 2^dim quadrant specs in a fixed order."""
    return [QuadrantSpec(rels) for rels in itertools.product((LT, GE), repeat=dim)]


def _coerce_spec(spec, dim):
    if not isinstance(spec, QuadrantSpec):
        spec = QuadrantSpec(tuple(spec))
    if spec.dim != dim:
        raise ValueError(f"quadrant spec has {spec.dim} relations, expected {dim}")
    return spec


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-constant function on a rectangular grid in dimension <= 3.

    ``cells[i1, ..., id]`` is the value on the product of per-axis half-open
    cells, indexed so that axis index j covers [axes[j-1], axes[j]) with the
    outer tails infinite.
    """

    axes: tuple
    cells: np.ndarray

    def __post_init__(self):
        axes = tuple(_readonly(a) for a in self.axes)
        cells = _readonly(self.cells)
        if not 1 <= len(axes) <= 3:
            raise ValueError("dimension must be 1, 2, or 3")
        for a in axes:
            _check_axis(a)
        expect = tuple(a.size + 1 for a in axes)
        if cells.shape != expect:
            raise ValueError(f"cells shape {cells.shape} does not match axes {expect}")
        if not np.isfinite(cells).all():
            raise ValueError("cell values must be finite")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "cells", cells)

    @property
    def dim(self):
        return len(self.axes)

    def _cell_index(self, point, sides):
        point = np.asarray(point, dtype=float).reshape(self.dim)
        return tuple(
            int(np.searchsorted(axis, point[i], side=sides[i]))
            for i, axis in enumerate(self.axes)
        )

    def value_at(self, point):
        return float(self.cells[self._cell_index(point, ("right",) * self.dim)])

    def quadrant_limit(self, point, spec):
        spec = _coerce_spec(spec, self.dim)
        sides = tuple(_SIDE[r] for r in spec.relations)
        return float(self.cells[self._cell_index(point, sides)])

    def __call__(self, point):
        return self.value_at(point)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
            and np.array_equal(self.cells, other.cells)
        )

    def to_text(self):
        lines = [str(self.dim)]
        for axis in self.axes:
            lines.append(",".join(repr(float(b)) for b in axis))
        lines.append(",".join(repr(float(v)) for v in self.cells.reshape(-1)))
        return "\n".join(lines) + "\n"

    def _like(self, axes, cells):
        # a function of this one's own type on other axes and cells
        return GridFunction(axes, cells)


class StepFunction1D(GridFunction):
    """The 1-D GridFunction, built from and read as (breakpoints, values):
    values[i] on [breakpoints[i-1], breakpoints[i]), constant infinite
    tails, right-continuous everywhere.  Never equal to a GridFunction."""

    def __init__(self, breakpoints, values):
        super().__init__((breakpoints,), values)

    @property
    def breakpoints(self):
        return self.axes[0]

    @property
    def values(self):
        return self.cells

    def _like(self, axes, cells):
        return StepFunction1D(axes[0], cells)

    def to_text(self):
        lines = [
            ",".join(repr(float(b)) for b in self.breakpoints),
            ",".join(repr(float(v)) for v in self.values),
        ]
        return "\n".join(lines) + "\n"


def _parse_floats(line):
    line = line.strip()
    if not line:
        return []
    return [float(tok) for tok in line.split(",")]


def step_function_from_text(text):
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("step function record needs two lines")
    return StepFunction1D(_parse_floats(lines[0]), _parse_floats(lines[1]))


def grid_function_from_text(text):
    lines = [ln for ln in text.splitlines()]
    dim = int(lines[0].strip())
    axes = [_parse_floats(lines[1 + i]) for i in range(dim)]
    flat = _parse_floats(lines[1 + dim])
    shape = tuple(len(a) + 1 for a in axes)
    return GridFunction(axes, np.asarray(flat).reshape(shape))


def from_text(text):
    """Parse either record type: two lines for a step function, a leading
    dimension line for a grid function."""
    if len(text.splitlines()) == 2:
        return step_function_from_text(text)
    return grid_function_from_text(text)


@dataclass(frozen=True)
class LowerEnvelope:
    """Pointwise minimum over all quadrant limits of the base function.

    Equals the base off grid nodes; at nodes and faces it can drop below the
    value, which is what makes boundary points eligible minimizers.
    """

    base: object

    def value_at(self, point):
        dim = self.base.dim
        return min(self.base.quadrant_limit(point, spec) for spec in all_quadrants(dim))

    def __call__(self, point):
        return self.value_at(point)


def lower_envelope(f):
    return LowerEnvelope(f)


def infimum(f):
    """Global infimum; attained because some cell carries the minimal value."""
    return float(np.min(f.cells))


def _axis_representatives(axis):
    # one probe per cell: below the first breakpoint, midpoints, above the last
    if axis.size == 0:
        return np.array([0.0])
    reps = np.empty(axis.size + 1)
    reps[0] = axis[0] - 1.0
    reps[-1] = axis[-1] + 1.0
    if axis.size > 1:
        reps[1:-1] = (axis[:-1] + axis[1:]) / 2.0
    return reps


def add_scale(f, g, a, b):
    """a*f + b*g on the common refinement of the two breakpoint grids."""
    if f.dim != g.dim:
        raise ValueError("operands must share the dimension")
    axes = tuple(np.union1d(fa, ga) for fa, ga in zip(f.axes, g.axes))
    reps = [_axis_representatives(axis) for axis in axes]

    def sample(h):
        # h's cell index of each refined cell, one axis at a time
        idx = (np.searchsorted(axis, r, side="right") for axis, r in zip(h.axes, reps))
        return h.cells[np.ix_(*idx)]

    return f._like(axes, a * sample(f) + b * sample(g))


def normalize(f):
    """Drop breakpoints whose adjacent cells agree exactly; evaluation is
    unchanged everywhere."""
    axes = list(f.axes)
    cells = f.cells
    for ax in range(len(axes)):
        moved = cells.swapaxes(0, ax)
        flat = moved.reshape(moved.shape[0], -1)
        keep = (flat[:-1] != flat[1:]).any(axis=1)
        axes[ax] = axes[ax][keep]
        cells = moved[np.concatenate(([True], keep))].swapaxes(0, ax)
    return f._like(tuple(axes), cells)

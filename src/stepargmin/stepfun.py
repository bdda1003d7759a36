"""Piecewise-constant right-continuous functions on the line and on
rectangular grids in up to three dimensions.

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


def _check_axis(breakpoints, name="breakpoints"):
    if breakpoints.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(breakpoints)):
        raise ValueError(f"{name} must be finite")
    if breakpoints.size > 1 and not np.all(np.diff(breakpoints) > 0):
        raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def all_ge(cls, dim):
        return cls((GE,) * dim)

    def __eq__(self, other):
        return isinstance(other, QuadrantSpec) and self.relations == other.relations

    def __hash__(self):
        return hash(self.relations)


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
class StepFunction1D:
    """Step function with values[i] on [breakpoints[i-1], breakpoints[i]),
    constant infinite tails, right-continuous everywhere."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _readonly(self.breakpoints)
        vals = _readonly(self.values)
        _check_axis(bp)
        if vals.ndim != 1 or vals.size != bp.size + 1:
            raise ValueError("values must have one entry more than breakpoints")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return 1

    def value_at(self, t):
        idx = np.searchsorted(self.breakpoints, t, side="right")
        return float(self.values[idx])

    def values_at(self, ts):
        idx = np.searchsorted(self.breakpoints, np.asarray(ts, dtype=float), side="right")
        return self.values[idx]

    def left_limit(self, t):
        idx = np.searchsorted(self.breakpoints, t, side="left")
        return float(self.values[idx])

    def quadrant_limit(self, t, spec):
        spec = _coerce_spec(spec, 1)
        t = float(t) if np.ndim(t) == 0 else float(np.asarray(t).reshape(()))
        idx = np.searchsorted(self.breakpoints, t, side=_SIDE[spec.relations[0]])
        return float(self.values[idx])

    def __call__(self, t):
        return self.value_at(t)

    def __eq__(self, other):
        return (
            isinstance(other, StepFunction1D)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def to_text(self):
        lines = [
            ",".join(repr(float(b)) for b in self.breakpoints),
            ",".join(repr(float(v)) for v in self.values),
        ]
        return "\n".join(lines) + "\n"


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
            _check_axis(a, "axis breakpoints")
        expect = tuple(a.size + 1 for a in axes)
        if cells.shape != expect:
            raise ValueError(f"cells shape {cells.shape} does not match axes {expect}")
        if not np.all(np.isfinite(cells)):
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
            isinstance(other, GridFunction)
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
    if isinstance(f, StepFunction1D):
        return float(np.min(f.values))
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


def _as_grid(f):
    if isinstance(f, StepFunction1D):
        return (f.breakpoints,), f.values
    return f.axes, f.cells


def add_scale(f, g, a, b):
    """a*f + b*g on the common refinement of the two breakpoint grids."""
    if f.dim != g.dim:
        raise ValueError("operands must share the dimension")
    f_axes, _ = _as_grid(f)
    g_axes, _ = _as_grid(g)
    axes = tuple(np.union1d(fa, ga) for fa, ga in zip(f_axes, g_axes))
    reps = [_axis_representatives(axis) for axis in axes]

    def sample(h):
        # h's cell index of each refined cell, one axis at a time
        h_axes, h_cells = _as_grid(h)
        idx = (np.searchsorted(axis, r, side="right") for axis, r in zip(h_axes, reps))
        return h_cells[np.ix_(*idx)]

    cells = a * sample(f) + b * sample(g)
    if isinstance(f, StepFunction1D):
        return StepFunction1D(axes[0], cells)
    return GridFunction(axes, cells)


def normalize(f):
    """Drop breakpoints whose adjacent cells agree exactly; evaluation is
    unchanged everywhere."""
    if isinstance(f, StepFunction1D):
        vals = f.values
        keep = vals[:-1] != vals[1:]
        return StepFunction1D(f.breakpoints[keep], vals[np.concatenate(([True], keep))])
    axes = list(f.axes)
    cells = f.cells
    for ax in range(len(axes)):
        moved = np.moveaxis(cells, ax, 0)
        flat = moved.reshape(moved.shape[0], -1)
        keep = np.any(flat[:-1] != flat[1:], axis=1)
        axes[ax] = axes[ax][keep]
        cells = np.moveaxis(moved[np.concatenate(([True], keep))], 0, ax)
    return GridFunction(tuple(axes), cells)

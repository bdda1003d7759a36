import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import all_ge
from stepargmin.stepfun import (
    GE,
    LT,
    GridFunction,
    QuadrantSpec,
    StepFunction1D,
    add_scale,
    all_quadrants,
    from_text,
    infimum,
    lower_envelope,
    normalize,
)

HALF_LATTICE = [i / 2.0 for i in range(-12, 13)]
VALUES = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]


def grid_1d(breakpoints, values):
    return GridFunction((breakpoints,), values)


@st.composite
def step_functions(draw, max_breaks=8):
    """A 1-D step function, as a StepFunction1D or as the equal 1-D
    GridFunction: every property below must hold for both."""
    bps = sorted(draw(st.sets(st.sampled_from(HALF_LATTICE), max_size=max_breaks)))
    vals = draw(
        st.lists(st.sampled_from(VALUES), min_size=len(bps) + 1, max_size=len(bps) + 1)
    )
    return draw(st.sampled_from((StepFunction1D, grid_1d)))(bps, vals)


def probes(f):
    bp = f.axes[0]
    pts = list(bp)
    pts += list((bp[:-1] + bp[1:]) / 2.0)
    if bp.size:
        pts += [bp[0] - 1.0, bp[-1] + 1.0]
    else:
        pts.append(0.0)
    return pts


class TestEval:
    def test_constant(self):
        f = StepFunction1D([], [5.0])
        assert f.value_at(3.7) == 5.0

    def test_right_continuity_at_breakpoint(self):
        f = StepFunction1D([0.0], [1.0, 0.0])
        assert f.value_at(0.0) == 0.0

    def test_middle_cell(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        assert f.value_at(0.999) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction1D([1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"cells shape \(1,\) does not match axes \(2,\)"):
            StepFunction1D([0.0], [1.0])
        with pytest.raises(ValueError):
            StepFunction1D([0.0], [1.0, np.nan])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridFunction(([0.0],), np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(([0.0], [0.0], [0.0], [0.0]), np.zeros((2, 2, 2, 2)))


class TestQuadrantLimits:
    def test_single_jump(self):
        f = StepFunction1D([0.0], [0.0, 1.0])
        assert f.quadrant_limit(0.0, (LT,)) == 0.0
        assert f.quadrant_limit(0.0, (GE,)) == 1.0

    def test_two_dim_node(self):
        f = GridFunction(([0.0], [0.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        t = (0.0, 0.0)
        assert f.quadrant_limit(t, (LT, LT)) == 1.0
        assert f.quadrant_limit(t, (GE, LT)) == 3.0
        assert f.quadrant_limit(t, (LT, GE)) == 2.0
        assert f.quadrant_limit(t, (GE, GE)) == 4.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadrantSpec(("<", "<="))
        with pytest.raises(ValueError):
            QuadrantSpec(())

    @given(step_functions(), st.sampled_from(HALF_LATTICE))
    @settings(max_examples=60, deadline=None)
    def test_all_ge_equals_value(self, f, t):
        assert f.quadrant_limit(t, all_ge(1)) == f.value_at(t)

    def test_all_ge_equals_value_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            axes = tuple(
                np.sort(rng.choice(np.arange(-3.0, 3.5, 0.5), size=rng.integers(1, 4), replace=False))
                for _ in range(2)
            )
            f = GridFunction(axes, rng.integers(-2, 3, size=tuple(a.size + 1 for a in axes)).astype(float))
            t = tuple(rng.choice(np.concatenate([ax, ax - 0.25, ax + 10])) for ax in axes)
            assert f.quadrant_limit(t, all_ge(2)) == f.value_at(t)


class TestLowerEnvelope:
    def test_constant(self):
        f = StepFunction1D([], [3.0])
        assert lower_envelope(f).value_at(17.0) == 3.0

    def test_left_limit_beats_value(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        assert lower_envelope(f).value_at(1.0) == 0.0

    def test_min_over_both_sides(self):
        f = StepFunction1D([0.0], [0.0, 1.0])
        assert lower_envelope(f).value_at(0.0) == 0.0

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_envelope_below_value_equal_off_breakpoints(self, f):
        env = lower_envelope(f)
        for t in probes(f):
            assert env.value_at(t) <= f.value_at(t)
            if t not in set(float(b) for b in f.axes[0]):
                assert env.value_at(t) == f.value_at(t)


class TestInfimum:
    def test_examples(self):
        assert infimum(StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])) == 0.0
        assert infimum(StepFunction1D([], [-2.5])) == -2.5
        f = GridFunction(([0.0], [0.0]), np.array([[1.0, 2.0], [3.0, -4.0]]))
        assert infimum(f) == -4.0

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_matches_probe_minimum(self, f):
        assert infimum(f) == min(f.value_at(t) for t in probes(f))


class TestAddScale:
    def test_identity(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        g = StepFunction1D([0.5], [2.0, 3.0])
        out = add_scale(f, g, 1.0, 0.0)
        for t in probes(out):
            assert out.value_at(t) == f.value_at(t)

    def test_zero(self):
        f = StepFunction1D([0.0], [1.0, 2.0])
        out = add_scale(f, f, 0.0, 0.0)
        assert np.all(out.values == 0.0)

    def test_constant_shift(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        one = StepFunction1D([], [1.0])
        out = add_scale(f, one, 1.0, -1.0)
        assert list(out.values) == [0.0, -1.0, 0.0]

    @given(step_functions(), step_functions())
    @settings(max_examples=60, deadline=None)
    def test_keeps_first_operand_type(self, f, g):
        assert type(add_scale(f, g, 1.0, -1.0)) is type(f)

    def test_grid_refinement(self):
        f = GridFunction(([0.0],), np.array([0.0, 1.0]))
        g = GridFunction(([1.0],), np.array([10.0, 20.0]))
        out = add_scale(f, g, 1.0, 1.0)
        assert list(out.axes[0]) == [0.0, 1.0]
        assert list(out.cells) == [10.0, 11.0, 21.0]


class TestNormalize:
    def test_removes_redundant(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 1.0, 2.0])
        g = normalize(f)
        assert list(g.breakpoints) == [1.0]
        assert list(g.values) == [1.0, 2.0]

    def test_idempotent(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        assert normalize(f) == f

    def test_all_equal(self):
        f = StepFunction1D([0.0, 1.0, 2.0], [3.0, 3.0, 3.0, 3.0])
        g = normalize(f)
        assert g.breakpoints.size == 0
        assert list(g.values) == [3.0]

    def test_grid_slab_merge(self):
        f = GridFunction(
            ([0.0, 1.0], [0.0]),
            np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]]),
        )
        g = normalize(f)
        assert list(g.axes[0]) == [1.0]
        assert g.cells.shape == (2, 2)

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_eval_unchanged(self, f):
        g = normalize(f)
        assert type(g) is type(f)
        for t in probes(f):
            assert g.value_at(t) == f.value_at(t)


class TestSerialization:
    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_step_roundtrip(self, f):
        assert from_text(f.to_text()) == f

    def test_grid_roundtrip(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3):
            axes = tuple(
                np.sort(rng.normal(size=rng.integers(1, 4))) for _ in range(dim)
            )
            f = GridFunction(axes, rng.normal(size=tuple(a.size + 1 for a in axes)))
            assert from_text(f.to_text()) == f

    def test_seventeen_digit_roundtrip(self):
        f = StepFunction1D([0.1234567890123456], [1 / 3, 2 / 3])
        assert from_text(f.to_text()) == f

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("", "no dimension line"),
            ("4\n1\n2\n", "2 of its 4 axis lines"),
            ("2\n0\n1\n", "no cells line"),
        ],
    )
    def test_truncated_grid_record_named(self, text, missing):
        with pytest.raises(ValueError, match=missing):
            from_text(text)


def test_step_function_never_equals_grid_function():
    f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
    g = GridFunction(([0.0, 1.0],), [1.0, 0.0, 1.0])
    assert f != g and g != f
    assert f == StepFunction1D(g.axes[0], g.cells) and g == GridFunction(f.axes, f.cells)


def test_quadrant_enumeration_count():
    assert len(all_quadrants(3)) == 8


_F1 = grid_1d([0.0], [1.0, 0.0])
_F2 = GridFunction(([0.0], [0.0]), [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: GridFunction(([[0.0, 1.0]],), [1.0, 0.0, 1.0]), ValueError, "one-dimensional"),
        (lambda: grid_1d([0.0, np.inf], [1.0, 0.0, 1.0]), ValueError, "must be finite"),
        (lambda: grid_1d([np.nan], [1.0, 0.0]), ValueError, "must be finite"),
        (lambda: _F2.quadrant_limit((0.0, 0.0), (LT,)), ValueError, "has 1 relations, expected 2"),
        (lambda: _F1.quadrant_limit(0.0, (LT, GE)), ValueError, "has 2 relations, expected 1"),
        (lambda: add_scale(_F1, _F2, 1.0, 1.0), ValueError, "share the dimension"),
    ],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()

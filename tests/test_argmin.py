import itertools
from collections import Counter

import numpy as np
import pytest

from corpus import (
    oracle_argmin,
    point_union,
    random_compact_function,
    random_function,
    random_shelled_function,
    union_membership,
)
from stepargmin import argmin as argmin_module
from stepargmin.argmin import (
    INF,
    Box,
    BoxUnion,
    EmptySetError,
    NonCompactError,
    OpenBox,
    OpenBoxUnion,
    UnboundedSetError,
    argmin_set,
    box_union_from_text,
    closed_complement,
    contained_in_open,
    hits,
    largmin,
    lower_orthant_closed,
    lower_orthant_open,
    orthant_checks,
    sargmin,
)
from stepargmin.stepfun import GridFunction, StepFunction1D


def interval(lo, hi):
    return Box((lo,), (hi,))


def open_interval(lo, hi):
    return OpenBox((lo,), (hi,))


def random_union(rng, dim, closed):
    # endpoints on a coarse lattice, so boxes touch and share endpoints;
    # some are infinite (open boxes more often, so that containment is
    # not rare in 3-D) and some closed boxes are degenerate (lo == hi)
    lattice = np.arange(-2.0, 2.5, 0.5)
    p_inf = 0.1 if closed else 0.4
    boxes = []
    for _ in range(rng.integers(0, 5)):
        lo, hi = [], []
        for _ in range(dim):
            a, b = np.sort(rng.choice(lattice, size=2))
            if closed and rng.random() < 0.2:
                b = a
            lo.append(-INF if rng.random() < p_inf else a)
            hi.append(INF if rng.random() < p_inf else b)
        boxes.append((Box if closed else OpenBox)(tuple(lo), tuple(hi)))
    return (BoxUnion if closed else OpenBoxUnion)(dim, tuple(boxes))


class TestArgminSet:
    def test_constant_is_everything(self):
        a = argmin_set(StepFunction1D([], [5.0]))
        assert a.boxes == (interval(-INF, INF),)

    def test_closure_includes_right_endpoint(self):
        a = argmin_set(StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0]))
        assert a.boxes == (interval(0.0, 1.0),)

    def test_unbounded_plus_bounded(self):
        a = argmin_set(StepFunction1D([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0, 3.0]))
        assert a.boxes == (interval(-INF, -1.0), interval(0.0, 1.0))

    def test_adjacent_minimal_cells_merge(self):
        a = argmin_set(StepFunction1D([0.0, 1.0, 2.0], [3.0, 0.0, 0.0, 4.0]))
        assert a.boxes == (interval(0.0, 2.0),)

    def test_grid_cells(self):
        f = GridFunction(([0.0], [0.0]), np.array([[1.0, 0.0], [3.0, 4.0]]))
        a = argmin_set(f)
        assert a.boxes == (Box((-INF, 0.0), (0.0, INF)),)

    def test_boxes_hold_python_floats(self):
        # argmin_set builds its boxes past the checked constructor
        rng = np.random.default_rng(17)
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            a = argmin_set(random_function(rng, dim, max_breaks=6))
            for box in a.boxes:
                for ends in (box.lo, box.hi):
                    assert type(ends) is tuple and len(ends) == dim
                    assert all(type(v) is float for v in ends)
                assert box == Box(box.lo, box.hi)
            text = a.to_text()
            assert "np." not in text and "float64" not in text
            assert box_union_from_text(text) == a


class TestExtremes:
    def test_interval(self):
        a = BoxUnion(1, (interval(0.0, 1.0),))
        assert sargmin(a) == (0.0,)
        assert largmin(a) == (1.0,)

    def test_two_boxes_2d(self):
        a = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((-1.0, 2.0), (0.0, 3.0))))
        assert sargmin(a) == (-1.0, 2.0)
        assert largmin(a) == (1.0, 1.0)

    def test_singleton(self):
        a = point_union((3.0, 4.0))
        assert sargmin(a) == (3.0, 4.0)
        assert largmin(a) == (3.0, 4.0)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            sargmin(BoxUnion(1, ()))
        with pytest.raises(EmptySetError):
            largmin(BoxUnion(1, ()))

    def test_unbounded_raises(self):
        a = BoxUnion(1, (interval(-INF, 0.0),))
        with pytest.raises(UnboundedSetError):
            sargmin(a)
        assert largmin(a) == (0.0,)
        b = BoxUnion(1, (interval(0.0, INF),))
        assert sargmin(b) == (0.0,)
        with pytest.raises(UnboundedSetError):
            largmin(b)

    def test_membership_of_extremes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            f = random_compact_function(rng, dim)
            a = argmin_set(f)
            assert a.bounded and not a.is_empty
            assert hits(a, point_union(sargmin(a)))
            assert hits(a, point_union(largmin(a)))


class TestKeptSets:
    """`argmin_set` keeps one (function, set) slot, and a union keeps its
    lexicographic extremes; neither may outlive a pass over a corpus."""

    def test_same_function_same_set(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        assert argmin_set(f) is argmin_set(f)

    def test_equal_distinct_function_gets_its_own_set(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        g = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        a = argmin_set(f)
        b = argmin_set(g)
        assert b is not a and b == a
        # one slot: f after g is built again
        c = argmin_set(f)
        assert c is not a and c == a

    def test_each_pass_rebuilds_every_set(self, monkeypatch):
        rng = np.random.default_rng(31)
        functions = [random_shelled_function(rng, dim) for dim in (1, 2, 3, 1, 2, 3)]
        functions = [f for f in functions if f is not None]
        points = [[tuple(rng.uniform(-7.0, 7.0, size=f.dim)) for _ in range(3)] for f in functions]
        assert len(functions) >= 2
        build = argmin_module._build_argmin_set
        builds = Counter()

        def counting(f):
            builds[id(f)] += 1
            return build(f)

        monkeypatch.setattr(argmin_module, "_build_argmin_set", counting)
        passes = []
        for _ in range(2):
            answers = []
            for f, xs in zip(functions, points):
                a = argmin_set(f)
                answers.append((a, [orthant_checks(f, x) for x in xs]))
            passes.append(answers)
        assert builds == {id(f): 2 for f in functions}
        for (a1, checks1), (a2, checks2) in zip(*passes):
            assert a2 is not a1 and a2 == a1 and checks2 == checks1

    def test_kept_extremes_stay_with_their_union(self, monkeypatch):
        a = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((-1.0, 2.0), (0.0, 3.0))))
        b = BoxUnion(2, a.boxes)
        c = BoxUnion(2, (Box((5.0, 5.0), (6.0, 6.0)),))
        smallest = argmin_module._smallest
        built = []

        def counting(union):
            built.append(union)
            return smallest(union)

        monkeypatch.setattr(argmin_module, "_smallest", counting)
        assert sargmin(a) == (-1.0, 2.0) and sargmin(a) == (-1.0, 2.0)
        assert (sargmin(b), sargmin(c)) == ((-1.0, 2.0), (5.0, 5.0))
        assert largmin(a) == (1.0, 1.0) and largmin(c) == (6.0, 6.0)
        assert [id(u) for u in built] == [id(a), id(b), id(c)]
        # the kept values are no fields: equality, hash and repr ignore them
        fresh = BoxUnion(2, a.boxes)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)

    def test_errors_are_not_kept(self, monkeypatch):
        largest = argmin_module._largest
        built = []

        def counting(union):
            built.append(union)
            return largest(union)

        monkeypatch.setattr(argmin_module, "_largest", counting)
        a = BoxUnion(1, (interval(0.0, INF),))
        for _ in range(2):
            with pytest.raises(UnboundedSetError):
                largmin(a)
        assert len(built) == 2


class TestBox:
    def test_bounded_is_finite(self):
        rng = np.random.default_rng(19)
        pool = np.array([-INF, -1.0, 0.0, 2.5, INF, np.nan])
        for _ in range(500):
            dim = int(rng.integers(1, 4))
            lo, hi = rng.choice(pool, size=(2, dim))
            box = Box(tuple(lo), tuple(hi))
            expected = bool(np.isfinite(box.lo).all() and np.isfinite(box.hi).all())
            assert box.bounded is expected
        assert not Box((np.nan,), (1.0,)).bounded

    def test_nan_end_empties_an_open_box(self):
        # no point lies strictly between a NaN and anything
        assert OpenBox((np.nan,), (1.0,)).is_empty
        assert OpenBox((0.0, 0.0), (1.0, np.nan)).is_empty
        assert not OpenBox((-INF,), (INF,)).is_empty
        assert OpenBoxUnion(2, (OpenBox((0.0, np.nan), (1.0, 1.0)),)).is_empty
        assert lower_orthant_open((np.nan,)).is_empty
        assert lower_orthant_open((1.0, np.nan)).is_empty


class TestContainsPoint:
    @pytest.mark.parametrize("cls", [BoxUnion, OpenBoxUnion])
    def test_dimension_mismatch(self, cls):
        box = (Box if cls is BoxUnion else OpenBox)((0.0, 0.0), (1.0, 1.0))
        union = cls(2, (box,))
        assert union.contains_point((0.5, 0.5))
        for point in ((0.5,), (0.5, 0.5, 0.5), 0.5):
            with pytest.raises(ValueError, match="dimension mismatch"):
                union.contains_point(point)


class TestHits:
    def test_unbounded_target(self):
        a = BoxUnion(1, (interval(0.0, 1.0), interval(3.0, 4.0)))
        assert hits(a, BoxUnion(1, (interval(-INF, 2.0),)))

    def test_disjoint(self):
        assert not hits(
            BoxUnion(1, (interval(0.0, 1.0),)), BoxUnion(1, (interval(2.0, 3.0),))
        )

    def test_corner_witness_2d(self):
        a = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((-1.0, 2.0), (0.0, 3.0))))
        e = BoxUnion(2, (Box((-INF, -INF), (0.0, 3.0)),))
        assert hits(a, e)

    def test_touching_counts(self):
        assert hits(BoxUnion(1, (interval(0.0, 1.0),)), BoxUnion(1, (interval(1.0, 2.0),)))

    def test_empty_never_hits(self):
        assert not hits(BoxUnion(1, ()), BoxUnion(1, (interval(-INF, INF),)))

    def test_dimension_mismatch(self):
        a = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)),))
        with pytest.raises(ValueError, match="dimension"):
            hits(a, BoxUnion(1, (interval(0.5, 0.6),)))
        with pytest.raises(ValueError, match="dimension"):
            hits(BoxUnion(1, (interval(0.5, 0.6),)), a)

    def test_matches_intersection_rule(self):
        met = 0
        for dim in (1, 2, 3):
            rng = np.random.default_rng((13, dim))
            for _ in range(1500):
                a = random_union(rng, dim, closed=True)
                e = random_union(rng, dim, closed=True)
                expected = any(p.intersect(q) is not None for p in a.boxes for q in e.boxes)
                assert hits(a, e) is expected
                met += expected
        assert met >= 500


class TestContainment:
    def test_examples(self):
        a = BoxUnion(1, (interval(0.0, 1.0),))
        assert contained_in_open(a, OpenBoxUnion(1, (open_interval(-0.5, 1.5),)))
        assert not contained_in_open(a, OpenBoxUnion(1, (open_interval(0.0, 2.0),)))
        b = BoxUnion(1, (interval(-INF, -1.0), interval(0.0, 1.0)))
        assert contained_in_open(b, OpenBoxUnion(1, (open_interval(-INF, 2.0),)))

    def test_cover_by_two_pieces(self):
        a = BoxUnion(1, (interval(0.0, 2.0),))
        g = OpenBoxUnion(1, (open_interval(-1.0, 1.0), open_interval(0.5, 3.0)))
        assert contained_in_open(a, g)
        g2 = OpenBoxUnion(1, (open_interval(-1.0, 1.0), open_interval(1.0, 3.0)))
        assert not contained_in_open(a, g2)

    def test_empty_contained_everywhere(self):
        assert contained_in_open(BoxUnion(1, ()), OpenBoxUnion(1, ()))

    def test_complement_of_two_windows(self):
        g = OpenBoxUnion(1, (open_interval(0.0, 1.0), open_interval(2.0, 3.0)))
        comp = closed_complement(g)
        assert comp.boxes == (
            interval(-INF, 0.0),
            interval(1.0, 2.0),
            interval(3.0, INF),
        )

    def test_complement_of_everything_is_empty(self):
        g = OpenBoxUnion(2, (OpenBox((-INF, -INF), (INF, INF)),))
        assert closed_complement(g).is_empty

    def test_duality_random(self):
        for dim in (1, 2, 3):
            rng = np.random.default_rng((11, dim))
            inside = 0
            for _ in range(1500):
                a = random_union(rng, dim, closed=True)
                g = random_union(rng, dim, closed=False)
                expected = not hits(a, closed_complement(g))
                assert contained_in_open(a, g) == expected
                inside += expected and not a.is_empty
            assert inside >= 50

    def test_duality_faces_and_infinite_ends(self):
        # open unions of up to 8 boxes; the closed boxes take their ends
        # from the open boxes' faces, so they touch them, and ends may be
        # infinite or NaN on both sides
        lattice = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
        for dim in (1, 2, 3):
            rng = np.random.default_rng((31, dim))
            inside = 0
            for _ in range(400):
                opens = []
                for _ in range(rng.integers(0, 9)):
                    lo, hi = np.sort(rng.choice(lattice, size=(2, dim)), axis=0)
                    lo[rng.random(dim) < 0.4] = -INF
                    hi[rng.random(dim) < 0.4] = INF
                    lo[rng.random(dim) < 0.03] = np.nan
                    opens.append(OpenBox(tuple(lo), tuple(hi)))
                g = OpenBoxUnion(dim, tuple(opens))
                ends = [
                    np.concatenate([lattice, [-INF, INF, np.nan], [e for b in opens for e in (b.lo[i], b.hi[i])]])
                    for i in range(dim)
                ]
                closed = []
                for _ in range(rng.integers(1, 4)):
                    lo, hi = np.sort([rng.choice(e, size=2) for e in ends], axis=1).T
                    closed.append(Box(tuple(lo), tuple(hi)))
                a = BoxUnion(dim, tuple(closed))
                expected = not hits(a, closed_complement(g))
                assert contained_in_open(a, g) is expected
                inside += expected and not a.is_empty
            assert inside >= 20

    def test_calls_grow_polynomially_on_grid_covers(self, monkeypatch):
        # the cube [0, n]^dim covered by a grid of r = n**dim open boxes
        # that overlap their neighbours by half a unit.  Peeling only an
        # open box that meets the closed one, and clipping after each axis,
        # keep the recursion within r**2 calls; slabs that overlap blow up
        covered = argmin_module._covered
        calls = bound = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            if calls > bound:
                raise AssertionError(f"more than {bound} calls")
            return covered(*args)

        monkeypatch.setattr(argmin_module, "_covered", counting)
        for n, dim in ((13, 2), (5, 3)):
            a = BoxUnion(dim, (Box((0.0,) * dim, (float(n),) * dim),))
            for shrink in (None, (n // 2,) * dim):
                boxes = []
                for cell in itertools.product(range(n), repeat=dim):
                    # the shrunk box leaves a corner of its cell uncovered
                    pad = -0.3 if cell == shrink else 0.25
                    boxes.append(OpenBox(tuple(c - pad for c in cell), tuple(c + 1 + pad for c in cell)))
                calls, bound = 0, len(boxes) ** 2
                assert contained_in_open(a, OpenBoxUnion(dim, tuple(boxes))) is (shrink is None)
                assert calls > len(boxes)

    def test_touching_and_infinite_covers(self):
        g = OpenBoxUnion(
            2, (OpenBox((-INF, 0.0), (1.0, 2.0)), OpenBox((0.5, 0.0), (INF, 2.0)))
        )
        assert contained_in_open(BoxUnion(2, (Box((-5.0, 1.0), (9.0, 1.5)),)), g)
        assert not contained_in_open(BoxUnion(2, (Box((-5.0, 0.0), (9.0, 1.5)),)), g)
        assert contained_in_open(BoxUnion(2, (Box((1.0, 1.0), (1.0, 1.0)),)), g)
        ray = BoxUnion(2, (Box((3.0, 0.5), (INF, 1.0)),))
        assert contained_in_open(ray, g)
        assert not contained_in_open(ray, OpenBoxUnion(2, (OpenBox((0.5, 0.0), (9.0, 2.0)),)))
        # (0, 1) and (1, 2) leave the point 1 uncovered
        split = OpenBoxUnion(1, (open_interval(0.0, 1.0), open_interval(1.0, 2.0)))
        assert not contained_in_open(BoxUnion(1, (interval(0.5, 1.5),)), split)
        assert contained_in_open(BoxUnion(1, (interval(0.5, 0.9), interval(1.1, 1.5))), split)

    def test_never_builds_the_complement(self, monkeypatch):
        def refuse(g):
            raise AssertionError("closed_complement called")

        monkeypatch.setattr(argmin_module, "closed_complement", refuse)
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            for _ in range(50):
                argmin_module.contained_in_open(
                    random_union(rng, dim, closed=True),
                    random_union(rng, dim, closed=False),
                )

    def test_dimension_mismatch(self):
        g = OpenBoxUnion(1, (open_interval(0.0, 1.0),))
        # an empty union has a dimension too, as hits already checks
        for a in (BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)),)), BoxUnion(2, ())):
            with pytest.raises(ValueError, match="dimension mismatch"):
                contained_in_open(a, g)

    def test_containment_2d_complement_route(self):
        a = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)),))
        g = OpenBoxUnion(2, (OpenBox((-1.0, -1.0), (2.0, 2.0)),))
        assert contained_in_open(a, g)
        g2 = OpenBoxUnion(2, (OpenBox((0.0, -1.0), (2.0, 2.0)),))
        assert not contained_in_open(a, g2)


class TestOrthantChecks:
    def test_examples(self):
        f = StepFunction1D([0.0, 1.0], [1.0, 0.0, 1.0])
        assert orthant_checks(f, (2.0,)) == (True, True, True, True)
        assert orthant_checks(f, (0.0,)) == (True, True, False, False)
        assert orthant_checks(f, (-1.0,)) == (False, False, False, False)

    def test_noncompact_raises(self):
        with pytest.raises(NonCompactError):
            orthant_checks(StepFunction1D([], [1.0]), (0.0,))

    def test_equivalences_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            f = random_compact_function(rng, dim)
            for _ in range(5):
                x = rng.uniform(-8, 8, size=dim)
                hit_lower, small_le, inside_open, large_lt = orthant_checks(f, x)
                assert hit_lower == small_le
                assert inside_open == large_lt

    def test_matches_generic_kernels(self):
        # multi-box compact sets, with x on box endpoints, at +-inf and nan
        rng = np.random.default_rng(29)
        multi = {1: 0, 2: 0, 3: 0}
        disagree = 0
        for dim in (1, 2, 3):
            for _ in range(400):
                f = random_shelled_function(rng, dim)
                if f is None:
                    continue
                a = argmin_set(f)
                multi[dim] += len(a.boxes) > 1
                ends = [
                    sorted({v for b in a.boxes for v in (b.lo[i], b.hi[i])})
                    + [-INF, INF, np.nan, float(rng.uniform(-7.0, 7.0))]
                    for i in range(dim)
                ]
                for _ in range(6):
                    x = tuple(float(rng.choice(c)) for c in ends)
                    hit_lower, small_le, inside_open, large_lt = orthant_checks(f, x)
                    assert hit_lower is hits(a, lower_orthant_closed(x))
                    assert inside_open is contained_in_open(a, lower_orthant_open(x))
                    assert hit_lower or not small_le
                    assert large_lt or not inside_open
                    if dim == 1:
                        assert (hit_lower, inside_open) == (small_le, large_lt)
                    else:
                        disagree += (hit_lower, inside_open) != (small_le, large_lt)
        assert min(multi.values()) >= 15
        # the converses fail beyond one dimension: the extremes are
        # lexicographic, not coordinatewise
        assert disagree > 0

    def test_dimension_mismatch(self):
        cells = np.ones((3, 3))
        cells[1, 1] = 0.0
        f = GridFunction(([0.0, 1.0], [0.0, 1.0]), cells)
        assert orthant_checks(f, (2.0, 2.0)) == (True, True, True, True)
        for x in ((2.0,), (2.0, 2.0, 2.0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                orthant_checks(f, x)


class TestInvariance:
    def test_positive_affine_rescaling(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            f = random_function(rng, dim, max_breaks=5)
            a = float(rng.choice([0.5, 2.0, 3.0]))
            b = float(rng.choice([-1.5, 0.0, 2.5]))
            if isinstance(f, StepFunction1D):
                g = StepFunction1D(f.breakpoints, a * f.values + b)
            else:
                g = GridFunction(f.axes, a * f.cells + b)
            assert argmin_set(g) == argmin_set(f)


class TestOracleAgreement:
    def test_small_corpus(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            dim = int(rng.integers(1, 4))
            f = random_function(rng, dim, max_breaks=5)
            computed = argmin_set(f)
            expected_boxes, member, reps = oracle_argmin(f)
            assert computed.boxes == expected_boxes
            mesh = np.meshgrid(*reps, indexing="ij")
            points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
            assert np.array_equal(
                union_membership(computed, points), member.reshape(-1)
            )


class TestNormalization:
    def test_merge_touching(self):
        u = BoxUnion(1, (interval(0.0, 1.0), interval(1.0, 2.0)))
        assert u.boxes == (interval(0.0, 2.0),)

    def test_subset_elimination_2d(self):
        u = BoxUnion(
            2, (Box((0.0, 0.0), (2.0, 2.0)), Box((0.5, 0.5), (1.0, 1.0)))
        )
        assert u.boxes == (Box((0.0, 0.0), (2.0, 2.0)),)

    def test_no_merge_2d(self):
        u = BoxUnion(2, (Box((0.0, 0.0), (1.0, 1.0)), Box((1.0, 0.0), (2.0, 1.0))))
        assert len(u.boxes) == 2

    def test_empty_dropped(self):
        u = BoxUnion(1, (interval(2.0, 1.0), interval(INF, INF)))
        assert u.is_empty

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BoxUnion(2, (interval(0.0, 1.0),))


class TestSerialization:
    def test_roundtrip(self):
        u = BoxUnion(
            2, (Box((-INF, 0.25), (0.0, INF)), Box((1.0, 1.0), (2.0, 3.5)))
        )
        assert box_union_from_text(u.to_text()) == u

    def test_empty_needs_dim(self):
        u = BoxUnion(3, ())
        parsed = box_union_from_text(u.to_text(), dim=3)
        assert parsed == u
        with pytest.raises(ValueError):
            box_union_from_text("")

    @pytest.mark.parametrize("text, dim", [("[0,1] [2,3]", 1), ("[0,1]", 2), ("[1,0]", 3)])
    def test_dim_must_match_boxes(self, text, dim):
        with pytest.raises(ValueError, match="dimension mismatch"):
            box_union_from_text(text, dim=dim)
        assert box_union_from_text(text, dim=len(text.split())) == box_union_from_text(text)

    @pytest.mark.parametrize("token", ["[1,2,3]", "[1;2]", "(1,2)", "[1,x]", "[]"])
    def test_malformed_token_named(self, token):
        with pytest.raises(ValueError) as info:
            box_union_from_text(f"[0,1] {token}")
        assert repr(token) in str(info.value)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Box((0.0,), (1.0, 2.0)), ValueError, "nonempty tuples of equal length"),
        (lambda: Box((), ()), ValueError, "nonempty tuples of equal length"),
        (lambda: OpenBox((0.0, 0.0), (1.0,)), ValueError, "nonempty tuples of equal length"),
        (lambda: OpenBox((), ()), ValueError, "nonempty tuples of equal length"),
        (lambda: BoxUnion(1, (Box((0.0, 0.0), (1.0, 1.0)),)), ValueError, "box dimension"),
        (
            lambda: OpenBoxUnion(2, (OpenBox((0.0,), (1.0,)),)),
            ValueError,
            "box dimension mismatch",
        ),
        (lambda: argmin_set([1.0, 0.0]), TypeError, "expects a GridFunction"),
    ],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()

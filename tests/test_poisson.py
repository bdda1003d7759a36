import dataclasses
import functools
import math
import types
from pathlib import Path

import numpy as np
import pytest
from corpus import oracle_argmin

from stepargmin import cpoisson, experiments, stepfit
from stepargmin.argmin import (
    INF,
    Box,
    BoxUnion,
    IntervalRows,
    OpenBox,
    OpenBoxUnion,
    _argmin_cells,
    argmin_set,
    contained_in_open,
    hits,
    largmin,
    lower_orthant_closed,
    lower_orthant_open,
    sargmin,
)
from stepargmin.cpoisson import (
    _BLOCK,
    _HEIGHT,
    _draw_block,
    _row_function,
    CompoundPoissonSpec,
    EmptySamplesError,
    FunctionalEstimate,
    InvalidSpecError,
    JumpLaw,
    OutOfDomainError,
    TooManyRedrawsError,
    choose_interval_bounds,
    estimate_capacity,
    estimate_containment,
    inverse_normal_cdf,
    jump_law_from_token,
    normal_cdf,
    sample_extreme_minimizers,
    samples_to_csv,
    simulate_trajectory,
    spec_from_text,
)
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfun import StepFunction1D


def unit_spec(**overrides):
    kwargs = dict(
        rate_right=1.0,
        rate_left=1.0,
        jump_right=JumpLaw("point", (1.0,)),
        jump_left=JumpLaw("point", (1.0,)),
        window_initial=8.0,
        window_growth=2.0,
        max_window=64.0,
    )
    kwargs.update(overrides)
    return CompoundPoissonSpec(**kwargs)


class TestJumpLaws:
    def test_means(self):
        assert JumpLaw("point", (2.0,)).mean() == 2.0
        assert JumpLaw("two_point", (2.0, -1.0, 0.5)).mean() == 0.5
        assert JumpLaw("gaussian", (0.3, 1.0)).mean() == 0.3
        assert JumpLaw("shifted_exp", (0.5, 2.0)).mean() == 2.5
        assert JumpLaw("empirical", (1.0, 2.0, 3.0)).mean() == 2.0

    def test_invalid(self):
        with pytest.raises(InvalidSpecError):
            JumpLaw("cauchy", (0.0,))
        with pytest.raises(InvalidSpecError):
            JumpLaw("two_point", (1.0, 2.0, 1.5))
        with pytest.raises(InvalidSpecError):
            JumpLaw("empirical", ())

    def test_token_roundtrip(self):
        law = JumpLaw("two_point", (1.5, -0.5, 0.25))
        assert jump_law_from_token(law.to_token()) == law


def laplace(law, r):
    """E[exp(-r J)], summed atom by atom or in closed form."""
    p = law.params
    if law.family == "two_point":
        return p[2] * math.exp(-r * p[0]) + (1.0 - p[2]) * math.exp(-r * p[1])
    if law.family == "shifted_exp":
        return math.exp(-r * p[0]) / (1.0 + r * p[1])
    return math.fsum(math.exp(-r * v) for v in p) / len(p)


class TestLundberg:
    def test_gaussian_closed_form(self):
        assert JumpLaw("gaussian", (1.0, 0.5)).lundberg == 8.0
        assert JumpLaw("gaussian", (0.3, 2.0)).lundberg == 2.0 * 0.3 / 4.0

    @pytest.mark.parametrize(
        "law",
        [
            JumpLaw("two_point", (-3.0, 5.0, 0.5)),
            JumpLaw("two_point", (-1.0, 1.02, 0.5)),
            JumpLaw("two_point", (4.0, -1e-3, 0.999)),
            JumpLaw("shifted_exp", (-0.5, 1.5)),
            JumpLaw("shifted_exp", (-2.0, 40.0)),
            JumpLaw("empirical", (-1.0, 1.0, 1.0, 2.0)),
            JumpLaw("empirical", (-7.0, 0.0, 3.0, 3.0, 3.0)),
        ],
    )
    def test_root_rounded_down(self, law):
        r = law.lundberg
        assert 0.0 < r < INF
        assert laplace(law, r) <= 1.0
        assert laplace(law, r * (1.0 + 1e-6)) > 1.0

    @pytest.mark.parametrize(
        "law, negative",
        [
            (JumpLaw("point", (1.0,)), False),
            (JumpLaw("point", (0.0,)), False),
            (JumpLaw("point", (-1.0,)), True),
            (JumpLaw("gaussian", (1.0, 0.0)), False),
            (JumpLaw("gaussian", (1.0, 0.5)), True),
            (JumpLaw("two_point", (-3.0, 5.0, 0.5)), True),
            (JumpLaw("two_point", (5.0, -3.0, 0.5)), True),
            (JumpLaw("two_point", (-3.0, 5.0, 0.0)), False),
            (JumpLaw("two_point", (5.0, -3.0, 1.0)), False),
            (JumpLaw("two_point", (0.0, 2.0, 0.5)), False),
            (JumpLaw("shifted_exp", (0.0, 1.0)), False),
            (JumpLaw("shifted_exp", (-0.1, 1.0)), True),
            (JumpLaw("empirical", (0.0, 1.0)), False),
            (JumpLaw("empirical", (-1.0, 1.0, 1.0, 2.0)), True),
        ],
    )
    def test_infinite_exactly_without_negative_support(self, law, negative):
        assert (law.lundberg == INF) is not negative

    def test_nonpositive_mean_has_no_root(self):
        for law in (
            JumpLaw("point", (-1.0,)),
            JumpLaw("gaussian", (-1.0, 1.0)),
            JumpLaw("two_point", (-1.0, 1.0, 0.5)),
            JumpLaw("empirical", (-2.0, 1.0)),
        ):
            assert law.lundberg == 0.0


class TestSpec:
    def test_nonpositive_mean_rejected(self):
        with pytest.raises(InvalidSpecError):
            unit_spec(jump_right=JumpLaw("point", (-1.0,)))
        with pytest.raises(InvalidSpecError):
            unit_spec(jump_left=JumpLaw("gaussian", (0.0, 1.0)))

    def test_rate_and_window_validation(self):
        with pytest.raises(InvalidSpecError):
            unit_spec(rate_right=0.0)
        with pytest.raises(InvalidSpecError):
            unit_spec(window_growth=1.0)
        with pytest.raises(InvalidSpecError):
            unit_spec(max_window=1.0)

    def test_text_roundtrip(self):
        spec = unit_spec(jump_right=JumpLaw("gaussian", (1.0, 0.5)))
        assert spec_from_text(spec.to_text()) == spec

    def test_unset_window_initial_follows_max_window(self):
        # replace passes an unset window_initial on as unset, so it still
        # reads min(8, max_window); one that was set stays and is checked
        point = JumpLaw("point", (1.0,))
        spec = CompoundPoissonSpec(1.0, 1.0, point, point)
        small = dataclasses.replace(spec, max_window=4.0)
        assert small.window_initial is None
        assert cpoisson._window_grid(spec) == [8.0, 16.0, 32.0, 64.0]
        assert cpoisson._window_grid(small) == [4.0]
        assert "window_initial" not in small.to_text()
        assert spec_from_text(small.to_text()) == small
        with pytest.raises(InvalidSpecError, match="at least window_initial"):
            dataclasses.replace(unit_spec(), max_window=4.0)

    def test_missing_key(self):
        with pytest.raises(InvalidSpecError, match="rate_left"):
            spec_from_text("rate_right = 1.0\njump_right = point(1)\njump_left = point(1)\n")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("max_windw = 3", "line 8: unknown key 'max_windw'"),
            ("rate_right = 2.0", "line 8: repeated key 'rate_right'"),
        ],
    )
    def test_bad_key_names_line(self, extra, message):
        text = unit_spec().to_text() + extra + "\n"
        with pytest.raises(InvalidSpecError, match=message):
            spec_from_text(text)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("point(1.0)", "point(1, x)", "'point(1, x)'"),
            ("rate_left = 1.0", "rate_left = 1.0x", "rate_left"),
        ],
    )
    def test_bad_number_named(self, old, new, named):
        with pytest.raises(InvalidSpecError) as info:
            spec_from_text(unit_spec().to_text().replace(old, new, 1))
        assert named in str(info.value)


class TestTrajectory:
    def test_deterministic(self):
        spec = unit_spec()
        t1, f1 = simulate_trajectory(spec, 42)
        t2, f2 = simulate_trajectory(spec, 42)
        assert t1 == t2 and f1 == f2

    def test_zero_at_origin_and_staircase(self):
        spec = unit_spec()
        for seed in range(20):
            traj, flag = simulate_trajectory(spec, seed)
            assert not flag
            assert traj.value_at(0.0) == 0.0
            split = traj.breakpoints.searchsorted(0.0)
            assert np.all(np.diff(traj.values[split:]) >= 0)
            assert np.all(np.diff(traj.values[: split + 1]) <= 0)

    def test_argmin_is_first_arrival_interval(self):
        spec = unit_spec()
        for seed in range(25):
            traj, _ = simulate_trajectory(spec, seed)
            bp = traj.breakpoints
            first_right = float(bp[bp > 0][0])
            first_left = float(bp[bp < 0][-1])
            a = argmin_set(traj)
            assert a.boxes == (Box((first_left,), (first_right,)),)

    def test_window_enlargement_consistency(self):
        spec = unit_spec()
        bigger = dataclasses.replace(spec, window_initial=32.0)
        for seed in range(20):
            t_small, flag = simulate_trajectory(spec, seed)
            assert not flag
            t_big, _ = simulate_trajectory(bigger, seed)
            assert argmin_set(t_small) == argmin_set(t_big)

    def test_jump_count_poisson_moments(self):
        # rate 5 over (0, 1]: mean and variance of counts within 5 standard
        # errors of the Poisson values
        spec = unit_spec(rate_right=5.0, window_initial=4.0, max_window=16.0)
        counts = []
        for seed in range(10_000):
            traj, _ = simulate_trajectory(spec, seed)
            bp = traj.breakpoints
            counts.append(int(np.sum((bp > 0.0) & (bp <= 1.0))))
        counts = np.array(counts, dtype=float)
        lam = 5.0
        n = counts.size
        se_mean = math.sqrt(lam / n)
        assert abs(counts.mean() - lam) <= 5 * se_mean
        se_var = math.sqrt((lam + 2 * lam * lam) / n)
        assert abs(counts.var() - lam) <= 5 * se_var

    def test_origin_always_minimal_for_positive_jumps(self):
        spec = unit_spec(
            jump_right=JumpLaw("shifted_exp", (0.5, 1.0)),
            jump_left=JumpLaw("point", (0.75,)),
        )
        for seed in range(200):
            traj, _ = simulate_trajectory(spec, seed)
            a = argmin_set(traj)
            assert a.contains_point((0.0,))


class TestExtremeMinimizers:
    def test_deterministic(self):
        spec = unit_spec()
        s1 = sample_extreme_minimizers(spec, 50, 9)
        s2 = sample_extreme_minimizers(spec, 50, 9)
        assert np.array_equal(s1, s2)

    def test_straddles_origin(self):
        spec = unit_spec()
        for s in sample_extreme_minimizers(spec, 200, 3):
            assert s.xi_min <= 0.0 <= s.xi_max

    def test_exponential_law_of_ximax(self):
        spec = unit_spec()
        samples = sample_extreme_minimizers(spec, 20_000, 17)
        xs = np.array([s.xi_max for s in samples])
        p = float(np.mean(xs <= math.log(2.0)))
        assert abs(p - 0.5) <= 5 * math.sqrt(0.25 / xs.size)

    def test_too_many_redraws(self):
        # nearly driftless jumps inside a tiny window force boundary contact
        wobble = JumpLaw("two_point", (-1.0, 1.02, 0.5))
        spec = unit_spec(
            jump_right=wobble, jump_left=wobble, window_initial=1.0, max_window=2.0
        )
        with pytest.raises(TooManyRedrawsError):
            sample_extreme_minimizers(spec, 40, 5)

    def test_csv_dump(self):
        text = samples_to_csv(
            np.rec.fromarrays(([-1.0, -0.5], [2.0, 0.5], [0, 1]), names="xi_min,xi_max,redraws")
        )
        lines = text.splitlines()
        assert lines[0] == "rep,xi_min,xi_max,redraws"
        assert lines[1] == "0,-1.0,2.0,0"
        assert lines[2].endswith(",1")


class TestFunctionalEstimates:
    def test_empty_target_is_zero(self):
        est = estimate_capacity(unit_spec(), BoxUnion(1, ()), 200, 1)
        assert est == FunctionalEstimate(0.0, 0.0, 200)

    def test_full_space_containment_is_one(self):
        g = OpenBoxUnion(1, (OpenBox((-INF,), (INF,)),))
        est = estimate_containment(unit_spec(), g, 200, 1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_lower_halfline_capacity_is_one(self):
        e = BoxUnion(1, (Box((-INF,), (0.0,)),))
        est = estimate_capacity(unit_spec(), e, 500, 2)
        assert est.value == 1.0

    def test_upper_halfline_capacity_near_half(self):
        e = BoxUnion(1, (Box((math.log(2.0),), (INF,)),))
        est = estimate_capacity(unit_spec(), e, 2000, 29)
        assert abs(est.value - 0.5) <= 5 * math.sqrt(0.25 / 2000)

    def test_negative_window_containment_vanishes(self):
        g = OpenBoxUnion(1, (OpenBox((-INF,), (0.0,)),))
        est = estimate_containment(unit_spec(), g, 500, 2)
        assert est.value == 0.0

    def test_containment_below_capacity_same_seed(self):
        spec = unit_spec(jump_right=JumpLaw("gaussian", (1.0, 0.5)))
        for lo, hi in [(-1.0, 1.0), (-2.0, 0.5), (-0.25, 3.0)]:
            e = BoxUnion(1, (Box((lo,), (hi,)),))
            g = OpenBoxUnion(1, (OpenBox((lo,), (hi,)),))
            cap = estimate_capacity(spec, e, 400, 77)
            cont = estimate_containment(spec, g, 400, 77)
            assert cont.value <= cap.value

    def test_replications_below_one_rejected(self):
        for estimate in (estimate_capacity, estimate_containment):
            with pytest.raises(ValueError, match="replications"):
                estimate(unit_spec(), BoxUnion(1, ()), 0, 1)

    def test_std_error_formula(self):
        est = estimate_capacity(unit_spec(), BoxUnion(1, (Box((0.1,), (0.3,)),)), 400, 5)
        assert est.std_error == math.sqrt(est.value * (1 - est.value) / 400)

    def test_worker_count_invariance(self):
        spec = unit_spec(jump_right=JumpLaw("gaussian", (1.0, 0.5)))
        e = BoxUnion(1, (Box((-1.0,), (1.0,)),))
        # several blocks, the last one partial, and boundary redraws; the
        # point and derived gaussian specs take certified prefixes
        redrawn = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        several = (redrawn, unit_spec(), derived_specs()[0])
        one = [samples_to_csv(sample_extreme_minimizers(s, 1077, 21, workers=1)) for s in several]
        # 3 workers cut the blocks into other tasks than 2, on any pool size
        for workers in (2, 3):
            assert estimate_capacity(spec, e, 300, 13, workers=1) == estimate_capacity(
                spec, e, 300, 13, workers=workers
            )
            assert np.array_equal(
                sample_extreme_minimizers(spec, 200, 13, workers=1),
                sample_extreme_minimizers(spec, 200, 13, workers=workers),
            )
            for s, text in zip(several, one):
                many = samples_to_csv(sample_extreme_minimizers(s, 1077, 21, workers=workers))
                assert text.encode() == many.encode()

    @pytest.mark.parametrize(
        "workers, law",
        [pytest.param(w, "two_point", id=str(w)) for w in (1, 2)]
        + [pytest.param(w, law, id=f"{law}-{w}") for law in ("point", "derived") for w in (1, 2)],
    )
    def test_short_run_is_prefix_of_long_run(self, workers, law):
        # at seed 38, replication 2 of block 0 is a two_point boundary row
        # and redrawn; the point and derived gaussian specs take certified
        # prefixes
        spec = {
            "two_point": unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT),
            "point": unit_spec(),
            "derived": derived_specs()[0],
        }[law]
        job = cpoisson._limit_job
        short, long = run_chunks([job(spec, 38, 11), job(spec, 38, 40)], workers)
        rows = IntervalRows.from_cells(short[:, 0], short[:, 1], short[:, 2])
        assert rows.starts.size == 11 and short.shape[1] == 4
        assert bool(short[rows.starts, 3].sum()) == (law == "two_point")
        assert short.tobytes() == long[: len(short)].tobytes()


def closed(*pairs):
    return BoxUnion(1, tuple(Box((lo,), (hi,)) for lo, hi in pairs))


def opened(*pairs):
    return OpenBoxUnion(1, tuple(OpenBox((lo,), (hi,)) for lo, hi in pairs))


CLOSED_MENU = (
    closed(),
    closed((-INF, 0.0)),
    closed((0.5, 3.0)),
    closed((-1.0, 1.0), (2.0, 4.0)),
    closed((-6.0, -2.0)),
    closed((5.0, INF)),
)
OPEN_MENU = (
    opened(),
    opened((-INF, INF)),
    opened((-INF, 2.0)),
    opened((-4.0, 4.0)),
    opened((-2.0, 0.0), (0.0, 2.0)),
    opened((-3.0, -1.0), (-1.5, 1.0)),
    opened((-1.0, INF)),
)

INTEGER_TIES = JumpLaw("empirical", (-1.0, 1.0, 1.0, 2.0))
NEGATIVE_SUPPORT = JumpLaw("two_point", (-3.0, 5.0, 0.5))
WOBBLE = JumpLaw("two_point", (-1.0, 1.02, 0.5))


def kernel_specs():
    return (
        unit_spec(jump_right=INTEGER_TIES, jump_left=JumpLaw("two_point", (-1.0, 2.0, 0.5))),
        unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT),
        unit_spec(jump_right=WOBBLE, jump_left=WOBBLE, window_initial=1.0, max_window=2.0),
    )


def assert_rows_exact(edges, values):
    """Kernel intervals of every row against the brute-force quadrant-limit
    oracle on the row's own StepFunction1D, and the kernel's extremes and
    predicates against the set functions on the oracle's set; returns the
    rows' argmin sets."""
    row, lo, hi = _argmin_cells(edges, values)
    rows = IntervalRows.from_cells(row, lo, hi)
    smallest, largest = rows.smallest(), rows.largest()
    hit_flags = [rows.meets("closed", e) for e in CLOSED_MENU]
    within_flags = [rows.meets("open", g) for g in OPEN_MENU]
    sets = []
    for r in range(edges.shape[0]):
        boxes, _, _ = oracle_argmin(StepFunction1D(*_row_function(edges[r], values[r])))
        a = BoxUnion(1, boxes)
        got = list(zip(lo[row == r].tolist(), hi[row == r].tolist()))
        assert got == [(b.lo[0], b.hi[0]) for b in a.boxes]
        if a.bounded:
            assert (smallest[r],) == sargmin(a) and (largest[r],) == largmin(a)
        for e, flags in zip(CLOSED_MENU, hit_flags):
            assert flags[r] == hits(a, e)
        for g, flags in zip(OPEN_MENU, within_flags):
            assert flags[r] == contained_in_open(a, g)
        sets.append(a)
    return sets


class TestBlockKernel:
    def test_rows_match_set_functions(self):
        several = boundary = 0
        for spec in kernel_specs():
            w = spec.max_window
            for b in range(4):
                for a in assert_rows_exact(*_draw_block(spec, substream(11, b), _BLOCK)):
                    several += len(a.boxes) > 1
                    boundary += not (-w < a.boxes[0].lo[0] and a.boxes[-1].hi[0] < w)
        # the corpus must exercise ties and boundary rows
        assert several >= 20 and boundary >= 20

    def test_top_up_rows(self, monkeypatch):
        # two gaps per row force every row through several top-up rounds;
        # arrival counts must stay Poisson and the rows exact
        monkeypatch.setattr(cpoisson, "_gap_count", lambda rate, horizon: 2)
        spec = unit_spec(
            rate_right=5.0, jump_right=INTEGER_TIES, window_initial=4.0, max_window=4.0
        )
        counts = []

        def count_arrivals(edges, values):
            if b < 4:
                assert_rows_exact(edges, values)
            for r in range(_BLOCK):
                bp, _ = _row_function(edges[r], values[r])
                counts.append(int(np.sum((bp > 0.0) & (bp <= 4.0))))

        for b in range(40):
            count_arrivals(*_draw_block(spec, substream(5, b), _BLOCK))
        counts = np.array(counts, dtype=float)
        lam = 20.0
        assert abs(counts.mean() - lam) <= 5 * math.sqrt(lam / counts.size)
        assert abs(counts.var() - lam) <= 5 * math.sqrt((lam + 2 * lam * lam) / counts.size)

    def test_zero_width_gap(self):
        # right arrivals at 1, 2, 2, 3 with jumps -1, +3, -3, +5: the cell
        # between the two arrivals at 2 has no width, so its value 2 is no
        # part of the trajectory and the minimal cells on either side of it
        # form one interval
        edges = np.array([[-INF, -2.0, -1.0, 1.0, 2.0, 2.0, 3.0, INF]])
        values = np.array([[2.0, 1.0, 0.0, -1.0, 2.0, -1.0, 4.0]])
        breaks, vals = _row_function(edges[0], values[0])
        assert breaks.tolist() == [-2.0, -1.0, 1.0, 2.0, 3.0]
        assert vals.tolist() == [2.0, 1.0, 0.0, -1.0, -1.0, 4.0]
        row, lo, hi = _argmin_cells(edges, values)
        assert list(zip(lo.tolist(), hi.tolist())) == [(1.0, 3.0)]
        assert_rows_exact(edges, values)
        # a zero-width cell below the minimum of the real cells is ignored
        values = np.array([[2.0, 1.0, 0.0, 1.0, -5.0, 1.0, 6.0]])
        row, lo, hi = _argmin_cells(edges, values)
        assert list(zip(lo.tolist(), hi.tolist())) == [(-1.0, 1.0)]
        assert_rows_exact(edges, values)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def derived_specs():
    """The limit specs that the reference configs derive, one per jump."""
    specs = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        model = experiments.parse_verification_config(path.read_text()).model
        specs.extend(stepfit.derive_limit_spec(model, j) for j in range(1, model.k + 1))
    return specs


def uncertified(spec, edges, values):
    """Per row of a block, whether some side's running sums never rise more
    than _HEIGHT / R above their running minimum at an arrival inside
    max_window: the rows that reach max_window uncertified."""
    c_left = int(np.count_nonzero(edges[0] < 0.0)) - 1
    sides = (
        (spec.jump_right, edges[:, c_left + 1 : -1], values[:, c_left + 1 :]),
        (spec.jump_left, -edges[:, c_left:0:-1], values[:, c_left - 1 :: -1]),
    )
    out = np.zeros(edges.shape[0], dtype=bool)
    for law, times, sums in sides:
        low = np.minimum.accumulate(np.minimum(sums, 0.0), axis=1)
        risen = (sums - low > _HEIGHT / law.lundberg) & (times <= spec.max_window)
        out |= ~risen.any(axis=1)
    return out


# each law with whether its sides take a certified prefix rather than the
# whole window
PREFIX_LAWS = (
    (JumpLaw("point", (1.0,)), True),
    (JumpLaw("gaussian", (1.0, 0.5)), True),
    (JumpLaw("shifted_exp", (-0.5, 1.5)), True),
    (JumpLaw("empirical", (-1.0, 2.0, 2.0, 3.0)), True),
    (JumpLaw("empirical", (0.0, 1.0)), True),
    (JumpLaw("two_point", (-1.0, 3.0, 0.25)), True),
    (NEGATIVE_SUPPORT, False),
)


class TestCertifiedPrefix:
    @pytest.mark.parametrize(
        "law, prefix", PREFIX_LAWS, ids=[law.to_token() for law, _ in PREFIX_LAWS]
    )
    def test_cells_are_whole_window_cells(self, law, prefix):
        # 1563 blocks of 64 rows, 100 032 rows: their argmin cells through
        # the certified prefix equal those through the whole window
        spec = unit_spec(jump_right=law, jump_left=law)
        widths = []

        def cells(edges, values):
            widths.append(edges.shape[1])
            return _argmin_cells(edges, values)

        for b in range(1563):
            certified = cells(*_draw_block(spec, substream(8, b), _BLOCK))
            whole = cells(*_draw_block(spec, substream(8, b), _BLOCK, whole=True))
            assert all(np.array_equal(c, w) for c, w in zip(certified, whole)), b
        certified, whole = np.array(widths[::2]), np.array(widths[1::2])
        assert np.all(certified <= whole)
        cut = int(np.count_nonzero(certified < whole))
        assert cut > 1400 if prefix else cut == 0

    @pytest.mark.parametrize(
        "law", [JumpLaw("gaussian", (1e-320, 1e10)), JumpLaw("two_point", (-1.0, 1.0 + 1e-14, 0.5))]
    )
    def test_nearly_driftless_laws_take_the_whole_window(self, law):
        # R reads 0 for the first and carries rounding error for the second
        spec = unit_spec(jump_right=law, jump_left=law)

        for b in range(4):
            certified = _draw_block(spec, substream(8, b), _BLOCK)
            whole = _draw_block(spec, substream(8, b), _BLOCK, whole=True)
            assert all(np.array_equal(c, w) for c, w in zip(certified, whole))

    def test_point_jumps_take_one_arrival(self):
        widths = [_draw_block(unit_spec(), substream(3, b), _BLOCK)[1].shape for b in range(20)]
        assert widths == [(_BLOCK, 3)] * 20

    def test_top_up_beside_a_prefix(self, monkeypatch):
        # two gaps per row on the right side force its top-up; the left side
        # is certified after a few arrivals, and the two are joined
        gap_count = cpoisson._gap_count
        monkeypatch.setattr(
            cpoisson, "_gap_count", lambda rate, w: 2 if rate == 5.0 else gap_count(rate, w)
        )
        spec = unit_spec(rate_right=5.0, jump_left=JumpLaw("gaussian", (1.0, 0.5)))
        for b in range(8):
            shapes = []

            def cells(edges, values):
                shapes.append(edges.shape[1])
                return assert_rows_exact(edges, values)

            prefix = cells(*_draw_block(spec, substream(9, b), _BLOCK))
            whole = cells(*_draw_block(spec, substream(9, b), _BLOCK, whole=True))
            assert prefix == whole
            assert shapes[0] < shapes[1]

    def test_derived_specs_certify_inside_max_window(self):
        specs = derived_specs()
        assert len(specs) == 4
        for spec in specs:
            flags = functools.partial(uncertified, spec)
            for b in range(1000):
                assert not flags(*_draw_block(spec, substream(12, b), _BLOCK)).any()

    def test_two_point_rows_reach_max_window_uncertified(self):
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        flags = functools.partial(uncertified, spec)
        for b in range(10):
            assert flags(*_draw_block(spec, substream(12, b), _BLOCK)).all()


class TestIntervalRows:
    def test_point_rows_are_membership(self):
        # every endpoint of the menus, points between and beyond them
        ends = {v for u in CLOSED_MENU + OPEN_MENU for b in u.boxes for v in b.lo + b.hi}
        ends = np.array(sorted(ends - {INF, -INF}) + [-8.0, -0.5, 8.0])
        values = np.concatenate((ends, ends - 0.25, ends + 0.25, [-100.0, 100.0]))
        rows = IntervalRows.from_points(values)
        touching = opened((-8.0, -0.5), (0.0, 8.0), (8.0, INF))
        for kind, menu in (("closed", CLOSED_MENU), ("open", OPEN_MENU + (touching,))):
            for u in menu:
                expected = [u.contains_point(v) for v in values]
                assert rows.meets(kind, u).tolist() == expected, (kind, u)

    @pytest.mark.parametrize(
        "kind, union",
        [("closed", lower_orthant_closed((0.0, 1.0))), ("open", lower_orthant_open((0.0, 1.0)))],
    )
    def test_meets_rejects_k_dim_sets(self, kind, union):
        with pytest.raises(ValueError, match="dimension mismatch"):
            IntervalRows.from_points([0.0, 1.0]).meets(kind, union)

    def test_estimators_reject_k_dim_sets(self, monkeypatch):
        # the set is checked before a single block is drawn
        calls = []
        draw = cpoisson._draw_block
        monkeypatch.setattr(cpoisson, "_draw_block", lambda *a: calls.append(1) or draw(*a))
        with pytest.raises(ValueError, match="dimension mismatch"):
            estimate_capacity(unit_spec(), lower_orthant_closed((0.0, -100.0)), 1000, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            estimate_containment(unit_spec(), lower_orthant_open((100.0, 100.0)), 1000, 1)
        assert calls == []


class TestStreamLayout:
    def test_prefix_property(self):
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        long_run = sample_extreme_minimizers(spec, 2000, 31)
        assert any(s.redraws for s in long_run[:1000])
        assert np.array_equal(long_run[:1000], sample_extreme_minimizers(spec, 1000, 31))
        point = unit_spec()
        assert np.array_equal(
            sample_extreme_minimizers(point, 200, 31)[:100],
            sample_extreme_minimizers(point, 100, 31),
        )

    def test_orthant_identities_on_shared_seed(self):
        for spec in kernel_specs()[:2]:
            samples = sample_extreme_minimizers(spec, 500, 44)
            lo = np.array([s.xi_min for s in samples])
            hi = np.array([s.xi_max for s in samples])
            for x in (-1.5, -0.25, 0.0, 0.7, 2.0):
                cap = estimate_capacity(spec, closed((-INF, x)), 500, 44)
                cont = estimate_containment(spec, opened((-INF, x)), 500, 44)
                assert cap.value == float(np.mean(lo <= x))
                assert cont.value == float(np.mean(hi < x))


class TestKeptSample:
    """The public estimators draw one (spec, seed, replications, workers)
    sample once and answer every later call on that key from it."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """draws.blocks counts the blocks and redraw attempts drawn in this
        process, draws.runs lists the workers of each `run_chunks` call
        that cpoisson makes."""
        calls = types.SimpleNamespace(blocks=[], runs=[])
        draw, run = cpoisson._draw_block, cpoisson.run_chunks

        def counted_draw(*args, **kwargs):
            calls.blocks.append(1)
            return draw(*args, **kwargs)

        def counted_run(jobs, workers):
            calls.runs.append(workers)
            return run(jobs, workers)

        monkeypatch.setattr(cpoisson, "_draw_block", counted_draw)
        monkeypatch.setattr(cpoisson, "run_chunks", counted_run)
        # a sample kept by an earlier test must not stand in for a draw
        monkeypatch.setattr(cpoisson, "_kept", (None, None))
        return calls

    def test_three_estimators_draw_once(self, draws):
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        samples = sample_extreme_minimizers(spec, 1000, 20261019)
        # 16 blocks, then one draw per redraw attempt
        assert samples.redraws.sum() > 0
        assert len(draws.blocks) == 16 + samples.redraws.sum()
        drawn = len(draws.blocks)
        cap = estimate_capacity(spec, closed((-INF, 0.5)), 1000, 20261019)
        cont = estimate_containment(spec, opened((-INF, 0.5)), 1000, 20261019)
        assert len(draws.blocks) == drawn and draws.runs == [1]
        assert cap.value == float(np.mean(samples.xi_min <= 0.5))
        assert cont.value == float(np.mean(samples.xi_max < 0.5))

    @pytest.mark.parametrize("change", ["spec", "seed", "replications", "workers"])
    def test_a_new_key_draws_again(self, draws, change):
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        args = dict(spec=spec, replications=1000, seed=20261019, workers=1)
        first = sample_extreme_minimizers(**args)
        drawn = len(draws.blocks)
        # another window_growth leaves every argmin set as it is
        args[change] = {
            "spec": dataclasses.replace(spec, window_growth=3.0),
            "seed": 20261020,
            "replications": 999,
            "workers": 2,
        }[change]
        again = sample_extreme_minimizers(**args)
        assert draws.runs == [1, args["workers"]]
        if change == "workers":
            # a pool's processes draw, out of this process's count
            assert np.array_equal(again, first)
        else:
            assert len(draws.blocks) > drawn
            assert len(again) == args["replications"]

    def test_a_sample_that_raises_is_not_kept(self, draws):
        spec = unit_spec(
            rate_right=5.0,
            rate_left=5.0,
            jump_right=NEGATIVE_SUPPORT,
            jump_left=NEGATIVE_SUPPORT,
            window_initial=4.0,
            max_window=4.0,
        )
        counts = []
        for _ in range(2):
            with pytest.raises(TooManyRedrawsError):
                estimate_capacity(spec, closed((-INF, 0.0)), 200, 7)
            counts.append(len(draws.blocks))
        # 4 blocks and their redraw attempts, twice
        assert counts[0] > 4 and counts[1] == 2 * counts[0]
        assert cpoisson._kept == (None, None)


class TestIntervalBounds:
    def test_empty_raises(self):
        with pytest.raises(EmptySamplesError):
            choose_interval_bounds(np.array([]), np.array([]), 0.9)
        with pytest.raises(OutOfDomainError):
            choose_interval_bounds(np.zeros(1), np.zeros(1), 1.5)

    def test_atom_handling(self):
        lo = hi = np.full(10, 1.5)
        a, b = choose_interval_bounds(lo, hi, 0.5)
        assert a < 1.5 < b
        assert np.all((a < lo) & (hi < b))

    def test_rank_clamps_to_extremes(self):
        hi = np.arange(1.0, 11.0)
        a, b = choose_interval_bounds(-hi, hi, 0.999)
        assert a < -10.0 and b > 10.0
        assert np.all((-hi > a) & (hi < b))

    def test_closed_form_joint_law(self):
        rng = np.random.default_rng(123)
        m = 50_000
        lo = -rng.standard_exponential(m)
        hi = rng.standard_exponential(m)
        a, b = choose_interval_bounds(lo, hi, 0.9)
        joint = float(np.mean((lo > a) & (hi < b)))
        assert joint >= 0.9
        assert (1 - math.exp(a)) * (1 - math.exp(-b)) >= 0.9 - 0.01


class TestNormalQuantile:
    def test_center(self):
        assert inverse_normal_cdf(0.5) == 0.0

    def test_upper_quantile(self):
        assert abs(inverse_normal_cdf(0.975) - 1.959964) <= 1e-5

    def test_antisymmetry(self):
        assert abs(inverse_normal_cdf(0.025) + inverse_normal_cdf(0.975)) <= 1e-9

    def test_domain(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(OutOfDomainError):
                inverse_normal_cdf(p)

    def test_roundtrip_accuracy(self):
        from scipy.stats import norm

        for p in np.linspace(1e-6, 1 - 1e-6, 101):
            z = inverse_normal_cdf(float(p))
            assert abs(norm.cdf(z) - p) <= 1e-9

    def test_cdf_matches_reference(self):
        from scipy.stats import norm

        for z in (-5.0, -1.0, 0.0, 0.3, 2.5):
            assert abs(normal_cdf(z) - norm.cdf(z)) < 1e-14

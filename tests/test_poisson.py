import dataclasses
import math
import types
from pathlib import Path

import numpy as np
import pytest
from corpus import long_walk_extremes, oracle_argmin
from test_golden import SAMPLES, TOP_UP_LAWS

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
    _HEIGHT,
    _MAX_GAPS,
    _block_rows,
    _draw_block,
    _row_function,
    CompoundPoissonSpec,
    EmptySamplesError,
    FunctionalEstimate,
    InvalidSpecError,
    JumpLaw,
    OutOfDomainError,
    UncertifiedWalkError,
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
        # the window keys are checked and then dropped: an unset
        # window_initial reads min(8, max_window) and a set one stays for
        # the check, but neither is stored, written back or drawn on
        point = JumpLaw("point", (1.0,))
        spec = CompoundPoissonSpec(1.0, 1.0, point, point)
        small = CompoundPoissonSpec(1.0, 1.0, point, point, max_window=4.0)
        assert small == spec == unit_spec()
        assert "window" not in small.to_text()
        assert spec_from_text(small.to_text()) == small
        assert dataclasses.replace(unit_spec(), max_window=4.0) == spec
        with pytest.raises(InvalidSpecError, match="at least window_initial"):
            CompoundPoissonSpec(1.0, 1.0, point, point, window_initial=8.0, max_window=4.0)

    @pytest.mark.parametrize(
        "law",
        [
            JumpLaw("gaussian", (1e-3, 1.0)),
            JumpLaw("gaussian", (1e-320, 1e10)),
            JumpLaw("two_point", (-1.0, 1.0 + 1e-14, 0.5)),
        ],
        ids=["weak-drift", "zero-R", "rounding-R"],
    )
    def test_uncertifiable_laws_rejected(self, law):
        # their drift climbs ln(1/eps)/R in more than _MAX_GAPS jumps, or R
        # reads 0; either side is enough
        with pytest.raises(InvalidSpecError, match=r"jump_left = .* cannot be certified"):
            unit_spec(jump_left=law)
        with pytest.raises(InvalidSpecError, match="above the cap of 16384"):
            unit_spec(jump_right=law)

    def test_certifiable_law_near_the_cap_accepted(self):
        # gaussian(0.03, 1) climbs the height in 15 350 jumps
        law = JumpLaw("gaussian", (0.03, 1.0))
        assert 15_000 < cpoisson._climb(law) <= _MAX_GAPS
        unit_spec(jump_right=law)

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
        # the three window keys are still valid keys
        window = "window_initial = 8.0\nwindow_growth = 2.0\nmax_window = 64.0\n"
        text = unit_spec().to_text() + window + extra + "\n"
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
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT)
        assert simulate_trajectory(spec, 42) == simulate_trajectory(spec, 42)

    def test_zero_at_origin_and_staircase(self):
        spec = unit_spec()
        for seed in range(20):
            traj = simulate_trajectory(spec, seed)
            assert traj.value_at(0.0) == 0.0
            split = traj.breakpoints.searchsorted(0.0)
            assert np.all(np.diff(traj.values[split:]) >= 0)
            assert np.all(np.diff(traj.values[: split + 1]) <= 0)

    def test_argmin_is_first_arrival_interval(self):
        spec = unit_spec()
        for seed in range(25):
            traj = simulate_trajectory(spec, seed)
            bp = traj.breakpoints
            first_right = float(bp[bp > 0][0])
            first_left = float(bp[bp < 0][-1])
            a = argmin_set(traj)
            assert a.boxes == (Box((first_left,), (first_right,)),)

    def test_window_enlargement_consistency(self):
        # the window keys change no draw
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT)
        bigger = dataclasses.replace(spec, window_initial=32.0, max_window=1024.0)
        for seed in range(20):
            t_small = simulate_trajectory(spec, seed)
            assert t_small == simulate_trajectory(bigger, seed)

    def test_jump_count_poisson_moments(self):
        # rate 5 over (0, 1]: mean and variance of counts within 5 standard
        # errors of the Poisson values.  A trajectory spans its whole
        # walks, whose length does not depend on the gaps; two_point walks
        # take 254 jumps or more, so they cover (0, 1]
        spec = unit_spec(rate_right=5.0, jump_right=NEGATIVE_SUPPORT)
        counts = []
        for seed in range(10_000):
            traj = simulate_trajectory(spec, seed)
            assert traj.breakpoints[-1] > 1.0
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
            traj = simulate_trajectory(spec, seed)
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

    def test_uncertified_row_raises(self):
        # gaussian(0.03, 1) passes the spec check, but its first chunk is
        # the whole cap of 16 384 jumps, and about 40% of its rows are still
        # uncertified there
        spec = unit_spec(jump_left=JumpLaw("gaussian", (0.03, 1.0)))
        with pytest.raises(UncertifiedWalkError) as info:
            sample_extreme_minimizers(spec, 40, 5)
        message = str(info.value)
        assert "a left walk of the spec" in message and "gaussian(0.03, 1.0)" in message
        assert "uncertified after 16384 jumps" in message

    def test_csv_dump(self):
        text = samples_to_csv(np.rec.fromarrays(([-1.0, -0.5], [2.0, 0.5]), names="xi_min,xi_max"))
        assert text.splitlines() == ["rep,xi_min,xi_max", "0,-1.0,2.0", "1,-0.5,0.5"]


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
        # several blocks, the last one cut: 53 of 64 rows, the last of 17,
        # for two_point, whose walks grow past their first chunk in some
        # rows, and 77 of 1024 rows, the last of 4, for point and the
        # derived gaussian
        grown = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        several = [(grown, 1077), (unit_spec(), 3 * 1024 + 77), (derived_specs()[0], 3 * 1024 + 77)]
        assert [_block_rows(s) for s, _ in several] == [64, 1024, 1024]
        one = [samples_to_csv(sample_extreme_minimizers(s, n, 21, workers=1)) for s, n in several]
        # 3 workers cut the blocks into other tasks than 2, on any pool size
        for workers in (2, 3):
            assert estimate_capacity(spec, e, 300, 13, workers=1) == estimate_capacity(
                spec, e, 300, 13, workers=workers
            )
            assert np.array_equal(
                sample_extreme_minimizers(spec, 200, 13, workers=1),
                sample_extreme_minimizers(spec, 200, 13, workers=workers),
            )
            for (s, n), text in zip(several, one):
                many = samples_to_csv(sample_extreme_minimizers(s, n, 21, workers=workers))
                assert text.encode() == many.encode()

    @pytest.mark.parametrize(
        "workers, law, counts",
        [pytest.param(w, "two_point", (11, 40), id=str(w)) for w in (1, 2)]
        + [
            pytest.param(w, law, (11, 40), id=f"{law}-{w}")
            for law in ("point", "derived")
            for w in (1, 2)
        ]
        + [
            pytest.param(w, law, (1500, 3000), id=f"{law}-{w}-across-blocks")
            for law in ("point", "derived")
            for w in (1, 2)
        ],
    )
    def test_short_run_is_prefix_of_long_run(self, workers, law, counts):
        # a short block draws all its rows, so its first rows are the long
        # run's; two_point walks grow past their first chunk in some rows.
        # 1500 of 3000 point or derived replications cut their second
        # 1024-row block
        spec = {
            "two_point": unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT),
            "point": unit_spec(),
            "derived": derived_specs()[0],
        }[law]
        job = cpoisson._limit_job
        n, m = counts
        short, long = run_chunks([job(spec, 38, n), job(spec, 38, m)], workers)
        rows = IntervalRows.from_cells(short[:, 0], short[:, 1], short[:, 2])
        assert rows.starts.size == n and short.shape[1] == 3
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
# a weak drift on a lattice: long walks and many tied minima
WOBBLE = JumpLaw("two_point", (-1.0, 1.25, 0.5))


# the rows of the raw blocks that the kernel tests draw: `_draw_block` takes
# any count, and the limit jobs' own heights come from `_block_rows`
ROWS = 64


def kernel_specs():
    return (
        unit_spec(jump_right=INTEGER_TIES, jump_left=JumpLaw("two_point", (-1.0, 2.0, 0.5))),
        unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT),
        unit_spec(jump_right=WOBBLE, jump_left=WOBBLE),
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
        several = far = 0
        for spec in kernel_specs():
            for whole in (False, True):
                for b in range(4):
                    block = _draw_block(spec, substream(11, b), ROWS, whole=whole)
                    for a in assert_rows_exact(*block):
                        several += len(a.boxes) > 1
                        far += not a.contains_point((0.0,))
        # the corpus must exercise ties and minima away from the origin
        assert several >= 20 and far >= 20

    def test_top_up_rows(self, monkeypatch):
        # chunks of a tenth of the drift's climb make every walk grow over
        # several chunks; whole rows must stay exact and their arrival
        # counts Poisson
        monkeypatch.setattr(cpoisson, "_FIRST", 0.1)
        monkeypatch.setattr(cpoisson, "_STEP", 0.1)
        spec = unit_spec(rate_right=5.0, jump_right=NEGATIVE_SUPPORT, jump_left=INTEGER_TIES)
        chunks, _, _ = cpoisson._walk(substream(5, 0), spec, "right", ROWS)
        assert len(chunks) >= 5
        counts = []
        for b in range(40):
            edges, values = _draw_block(spec, substream(5, b), ROWS, whole=True)
            if b < 4:
                assert_rows_exact(edges, values)
                assert_rows_exact(*_draw_block(spec, substream(5, b), ROWS))
            for r in range(ROWS):
                bp, _ = _row_function(edges[r], values[r])
                assert bp[-1] > 4.0
                counts.append(int(np.sum((bp > 0.0) & (bp <= 4.0))))
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


def recorded_walks(monkeypatch):
    """A list that collects (law, chunks, low, at) of every `_walk` call."""
    walks = []
    walk = cpoisson._walk

    def recording(rng, spec, side, rows):
        result = walk(rng, spec, side, rows)
        walks.append((getattr(spec, f"jump_{side}"), *result))
        return result

    monkeypatch.setattr(cpoisson, "_walk", recording)
    return walks


def walk_ends(chunks):
    """Per row of a `_walk`: its length in jumps and its last jump sum."""
    first = chunks[0][2]
    length = np.full(first.shape[0], first.shape[1])
    end = first[:, -1].copy()
    for rows, offset, more in chunks[1:]:
        length[rows] = offset + more.shape[1]
        end[rows] = more[:, -1]
    return length, end


# the laws whose certified walks are extended 32-fold
EXTENSION_LAWS = (
    JumpLaw("point", (1.0,)),
    JumpLaw("two_point", (-1.0, 3.0, 0.25)),
    NEGATIVE_SUPPORT,
    JumpLaw("empirical", (-1.0, 2.0, 2.0, 3.0)),
    JumpLaw("empirical", (0.0, 1.0)),
    JumpLaw("gaussian", (1.0, 0.5)),
    JumpLaw("gaussian", (0.5, 1.5)),
    JumpLaw("shifted_exp", (-0.5, 1.5)),
)


class TestCertifiedPrefix:
    @pytest.mark.parametrize("law", EXTENSION_LAWS, ids=[law.to_token() for law in EXTENSION_LAWS])
    def test_cells_are_whole_window_cells(self, law, monkeypatch):
        # 32 of the spec's blocks (64 to 1024 rows) on both sides: every
        # walk ends certified, and extended 32-fold with fresh jumps it
        # never falls back to the row's minimum, so the extension changes
        # none of the 2048 to 32 768 argmin sets.  The 32-fold walk stands
        # where the whole window stood
        spec = unit_spec(jump_right=law, jump_left=law)
        rows = _block_rows(spec)
        height = _HEIGHT / law.lundberg
        walks = recorded_walks(monkeypatch)
        rng = np.random.default_rng(99)
        changed = 0
        for b in range(32):
            _draw_block(spec, substream(8, b), rows)
            (_, right, low_right, _), (_, left, low_left, _) = walks[-2:]
            low = np.minimum(low_right, low_left)
            for chunks, side_low in ((right, low_right), (left, low_left)):
                length, end = walk_ends(chunks)
                assert np.all(end - side_low > height)
                more = np.cumsum(law.sample(rng, (rows, 31 * int(length.max()))), axis=1)
                changed += int(np.count_nonzero(end + more.min(axis=1) <= low))
        assert changed == 0

    @pytest.mark.parametrize(
        "law", [JumpLaw("gaussian", (1e-320, 1e10)), JumpLaw("two_point", (-1.0, 1.0 + 1e-14, 0.5))]
    )
    def test_nearly_driftless_laws_are_rejected(self, law):
        # R reads 0 for the first and carries rounding error for the
        # second; neither could be certified, so neither is drawn
        with pytest.raises(InvalidSpecError, match="cannot be certified"):
            unit_spec(jump_right=law, jump_left=law)

    def test_point_jumps_take_one_arrival(self, monkeypatch):
        walks = recorded_walks(monkeypatch)
        rows = _block_rows(unit_spec())
        assert rows == 1024
        widths = [_draw_block(unit_spec(), substream(3, b), rows)[1].shape for b in range(20)]
        assert widths == [(rows, 3)] * 20
        assert all(len(chunks) == 1 and chunks[0][2].shape == (rows, 1) for _, chunks, _, _ in walks)

    def test_top_up_beside_a_prefix(self, monkeypatch):
        # the right side's two_point walks grow past their first chunk in
        # some rows, beside left walks that one jump certifies; the rows
        # are exact, whole or not
        walks = recorded_walks(monkeypatch)
        spec = unit_spec(rate_right=5.0, jump_left=JumpLaw("shifted_exp", (0.5, 1.0)))
        spec = dataclasses.replace(spec, jump_right=NEGATIVE_SUPPORT)
        for b in range(8):
            for whole in (False, True):
                assert_rows_exact(*_draw_block(spec, substream(9, b), ROWS, whole=whole))
        grown = [len(chunks) for law, chunks, _, _ in walks if law == NEGATIVE_SUPPORT]
        assert len(grown) == 16 and min(grown) >= 2
        assert all(len(chunks) == 1 for law, chunks, _, _ in walks if law != NEGATIVE_SUPPORT)

    def test_derived_specs_certify_inside_max_window(self):
        # the derived specs were drawn on [-64/rate, 64/rate]; their
        # certified argmin sets all lie well inside it, over 64 000 rows
        # or a few more
        specs = derived_specs()
        assert len(specs) == 4
        for spec in specs:
            w = 64.0 / spec.rate_right
            rows = _block_rows(spec)
            for b in range(-(-64_000 // rows)):
                _, lo, hi = _argmin_cells(*_draw_block(spec, substream(12, b), rows))
                assert np.all((-w < lo) & (hi < w))

    def test_two_point_rows_reach_max_window_uncertified(self, monkeypatch):
        # at rate 1 a window of 64 held about 100 arrivals per side: nearly
        # every two_point walk is still uncertified at 100 jumps, which is
        # why that window gave wrong sets
        walks = recorded_walks(monkeypatch)
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        height = _HEIGHT / NEGATIVE_SUPPORT.lundberg
        early = []
        for b in range(10):
            _draw_block(spec, substream(12, b), _block_rows(spec))
            for _, chunks, _, _ in walks[-2:]:
                sums = chunks[0][2][:, :100]
                rise = sums - np.minimum(np.minimum.accumulate(sums, axis=1), 0.0)
                early.append((rise > height).any(axis=1))
        assert len(early) == 20 and np.mean(np.concatenate(early)) < 0.01


def rule_pairs():
    """(right, left) jump laws of every law that the golden digests and this
    file draw, on both sides, and of the golden samples' own specs."""
    laws = [*EXTENSION_LAWS, *TOP_UP_LAWS]
    for spec in kernel_specs():
        laws += [spec.jump_right, spec.jump_left]
    pairs = [(law, law) for law in laws] + [(right, left) for right, left, *_ in SAMPLES.values()]
    return list(dict.fromkeys(pairs))


class TestBlockRows:
    def test_heights_of_named_laws(self):
        heights = {
            JumpLaw("point", (1.0,)): 1024,
            JumpLaw("gaussian", (1.0, 0.5)): 1024,
            JumpLaw("shifted_exp", (-0.5, 1.5)): 1024,
            JumpLaw("two_point", (-1.0, 3.0, 0.25)): 1024,
            JumpLaw("empirical", (-1.0, 2.0, 2.0, 3.0)): 512,
            NEGATIVE_SUPPORT: 64,
            JumpLaw("gaussian", (0.5, 1.5)): 64,
        }
        for law, rows in heights.items():
            assert _block_rows(unit_spec(jump_right=law, jump_left=law)) == rows, law
        # every derived spec of the reference configs draws 1024 rows
        assert {_block_rows(spec) for spec in derived_specs()} == {1024}

    @pytest.mark.parametrize(
        "right, left", rule_pairs(), ids=[f"{r.to_token()}-{l.to_token()}" for r, l in rule_pairs()]
    )
    def test_first_chunks_stay_under_the_mmap_threshold(self, right, left):
        # a power of two in [64, 1024]; above 64 rows, each side's first
        # walk chunk is under 128 KB, and twice the rows would put one side
        # at or above it
        spec = unit_spec(jump_right=right, jump_left=left)
        rows = _block_rows(spec)
        assert rows in (64, 128, 256, 512, 1024)
        widths = [cpoisson._walk(substream(1), spec, side, rows)[0][0][2].shape for side in ("right", "left")]
        assert all(shape[0] == rows for shape in widths)
        if rows > 64:
            assert max(rows * width * 8 for _, width in widths) < 128 << 10
        if rows < 1024:
            assert max(2 * rows * width * 8 for _, width in widths) >= 128 << 10


class TestLongWalkReference:
    def test_two_point_extremes_match_long_walks(self):
        # limit_mc's two_point(-3, 5, 0.5) spec at rate 1 against walks of
        # 16 384 jumps per side, 32 times a p99 certified walk, with no
        # certificate and no window: the CDF of xi_min agrees within 4
        # standard errors of the difference.  A time window of 64 misses
        # it by 8 at x = 60
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        n = 8192
        xi_min = sample_extreme_minimizers(spec, n, 7).xi_min
        reference, _ = long_walk_extremes(spec, n, 2**14, np.random.default_rng(7))
        for x in (-40.0, 20.0, 40.0, 60.0):
            p, q = float(np.mean(xi_min <= x)), float(np.mean(reference <= x))
            se = math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / n)
            assert abs(p - q) <= 4.0 * se, (x, p, q)

    def test_point_reference_has_exponential_ends(self):
        # the reference itself: point jumps make xi_max an Exp(1) variate
        xi_min, xi_max = long_walk_extremes(unit_spec(), 20_000, 8, np.random.default_rng(3))
        assert np.all(xi_min < 0.0) and np.all(xi_max > 0.0)
        p = float(np.mean(xi_max <= math.log(2.0)))
        assert abs(p - 0.5) <= 5 * math.sqrt(0.25 / xi_max.size)


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
    @pytest.mark.parametrize("law", [NEGATIVE_SUPPORT, JumpLaw("gaussian", (1.0, 0.5))], ids=str)
    def test_walk_draws_through_law_sample(self, law):
        # a walk's first chunk is the running sum of one Law.sample draw of
        # its shape, from an equal generator: fair-bit two_point laws too
        spec = unit_spec(jump_right=law, jump_left=law)
        chunks, _, _ = cpoisson._walk(np.random.default_rng(5), spec, "right", _block_rows(spec))
        sums = chunks[0][2]
        jumps = law.sample(np.random.default_rng(5), sums.shape)
        assert np.array_equal(sums, np.cumsum(jumps, axis=1))

    def test_prefix_property(self):
        spec = unit_spec(jump_right=NEGATIVE_SUPPORT, jump_left=NEGATIVE_SUPPORT)
        long_run = sample_extreme_minimizers(spec, 2000, 31)
        assert np.array_equal(long_run[:1000], sample_extreme_minimizers(spec, 1000, 31))
        # point blocks hold 1024 rows, so 1500 replications cut the second
        point = unit_spec()
        assert np.array_equal(
            sample_extreme_minimizers(point, 3000, 31)[:1500],
            sample_extreme_minimizers(point, 1500, 31),
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
        """draws.blocks counts the blocks drawn in this process, draws.runs
        lists the workers of each `run_chunks` call that cpoisson makes."""
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
        assert len(draws.blocks) == 16
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
        args[change] = {
            "spec": dataclasses.replace(spec, rate_left=2.0),
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
        # the first of the 4 blocks has walks uncertified at the cap
        spec = unit_spec(jump_right=JumpLaw("gaussian", (0.03, 1.0)))
        counts = []
        for _ in range(2):
            with pytest.raises(UncertifiedWalkError):
                estimate_capacity(spec, closed((-INF, 0.0)), 200, 7)
            counts.append(len(draws.blocks))
        assert counts == [1, 2]
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

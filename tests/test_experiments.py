import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from corpus import joint_membership
from stepargmin import experiments
from stepargmin.argmin import INF, Box, BoxUnion, OpenBox, OpenBoxUnion, argmin_set
from stepargmin.cpoisson import OutOfDomainError
from stepargmin.experiments import (
    BadBoundsError,
    ClosedSetTuple,
    ConfigError,
    OpenSetTuple,
    VerificationConfig,
    alpha_limit_sigmas,
    build_rectangle,
    coverage_experiment,
    fit_table,
    gamma_of,
    membership_report,
    parse_verification_config,
    product_form_check,
    rectangle_columns,
    tail_probability_table,
    verify_limit_bounds,
)
from stepargmin.rng import run_chunks, substream
from stepargmin.stepfit import (
    Dataset,
    NoiseLaw,
    XLaw,
    draw_rows,
    fit_rows,
    fit_step,
    pure_step_model,
    rescaled_process,
)

UNIFORM01 = XLaw("uniform", (0.0, 1.0))


def closed_1d(lo, hi):
    return BoxUnion(1, (Box((lo,), (hi,)),))


def open_1d(lo, hi):
    return OpenBoxUnion(1, (OpenBox((lo,), (hi,)),))


def k1_config(**overrides):
    model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
    kwargs = dict(
        model=model,
        k=1,
        n_grid=(50, 100),
        replications_data=1000,
        replications_limit=1000,
        rho=0.1,
        closed_sets=(
            ClosedSetTuple("all", (closed_1d(-INF, INF),), None),
            ClosedSetTuple("lower0", (closed_1d(-INF, 0.0),), None),
        ),
        open_sets=(
            OpenSetTuple("all", (open_1d(-INF, INF),), None),
            OpenSetTuple("win6", (open_1d(-6.0, 6.0),), None),
        ),
        master_seed=2029,
        coverage_n=100,
        coverage_replications=1000,
    )
    kwargs.update(overrides)
    return VerificationConfig(**kwargs)


TWO_JUMPS = pure_step_model(
    (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25))
)


def k2_config(**overrides):
    kwargs = dict(
        model=TWO_JUMPS,
        k=2,
        n_grid=(30, 60),
        replications_data=1000,
        replications_limit=1000,
        rho=0.1,
        closed_sets=(
            ClosedSetTuple("lower", (closed_1d(-INF, 0.0), closed_1d(-INF, 0.0)), None),
        ),
        open_sets=(OpenSetTuple("win", (open_1d(-4.0, 4.0), open_1d(-4.0, 4.0)), None),),
        master_seed=3031,
    )
    kwargs.update(overrides)
    return VerificationConfig(**kwargs)


class TestGammaOf:
    def test_reference_values(self):
        getcontext().prec = 50
        ref1 = Decimal(1.0 - 0.05).ln() / 3
        assert abs(gamma_of(0.05, 1) - float(ref1.exp())) <= 1e-12
        ref2 = Decimal(1.0 - 0.1).ln() / 5
        assert abs(gamma_of(0.1, 2) - float(ref2.exp())) <= 1e-12

    def test_limit_toward_one(self):
        assert 1.0 - 1e-9 < gamma_of(1e-9, 1) < 1.0

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            gamma_of(0.0, 1)
        with pytest.raises(OutOfDomainError):
            gamma_of(1.0, 1)
        with pytest.raises(OutOfDomainError):
            gamma_of(0.5, 0)


class TestBuildRectangle:
    def _fit(self):
        fit = fit_step(Dataset([1, 2, 3, 4], [0, 0, 1, 1]), 1)
        return dataclasses.replace(fit, tau=(0.5,), alpha=(1.0, 1.0))

    def test_breakpoint_interval(self):
        rect = build_rectangle(self._fit(), 100, [(-2.0, 3.0)], [(-1.0, 1.0), (-1.0, 1.0)])
        assert (rect[0].lo, rect[0].hi, rect[0].closed) == (0.47, 0.52, False)

    def test_level_interval(self):
        rect = build_rectangle(self._fit(), 100, [(-2.0, 3.0)], [(-1.96, 1.96), (-1.96, 1.96)])
        assert rect[1].closed
        assert rect[1].lo == pytest.approx(0.804)
        assert rect[1].hi == pytest.approx(1.196)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(BadBoundsError):
            build_rectangle(self._fit(), 100, [(1.0, 1.0)], [(-1.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(BadBoundsError):
            build_rectangle(self._fit(), 100, [(-2.0, 3.0)], [(0.0, 0.0), (-1.0, 1.0)])

    def test_open_versus_closed_membership(self):
        rect = build_rectangle(self._fit(), 100, [(-2.0, 3.0)], [(-1.0, 1.0), (-1.0, 1.0)])
        assert not rect[0].contains(0.47)
        assert rect[1].contains(rect[1].lo)

    def test_columns_check_level_bounds_of_every_row(self):
        u = np.array([[-1.0, -1.0], [-1.0, 1.0]])
        v = np.ones((2, 2))
        with pytest.raises(BadBoundsError, match="level bounds 2"):
            rectangle_columns(np.full((2, 1), 0.5), np.ones((2, 2)), 100, [(-2.0, 3.0)], u, v)


class TestVerify:
    def test_full_space_rows_are_one(self):
        cfg = k1_config(
            closed_sets=(ClosedSetTuple("all", (closed_1d(-INF, INF),), None),),
            open_sets=(OpenSetTuple("all", (open_1d(-INF, INF),), None),),
        )
        report = verify_limit_bounds(cfg)
        assert report.passed
        for row in report.rows:
            assert row.lhs == 1.0 and row.rhs == 1.0

    def test_bounds_hold_with_slack(self):
        report = verify_limit_bounds(k1_config())
        assert report.passed and report.slack_violations == 0

    def test_deterministic(self):
        cfg = k1_config()
        assert verify_limit_bounds(cfg) == verify_limit_bounds(cfg)

    def test_worker_count_invariance(self):
        cfg = k1_config()
        assert verify_limit_bounds(cfg, workers=1) == verify_limit_bounds(cfg, workers=2)
        # 1001 replications: blocks of 81 rows at n = 100, of 273 and 136
        # rows at n = 30 and 60, each with a partial last block
        cfg = k1_config(coverage_replications=1001)
        assert coverage_experiment(cfg, workers=1) == coverage_experiment(cfg, workers=2)
        cfg = k2_config(replications_data=1001)
        assert verify_limit_bounds(cfg, workers=1) == verify_limit_bounds(cfg, workers=2)

    def test_bootstrap_mode_runs(self):
        cfg = k1_config(rhs_mode="empirical-bootstrap", bootstrap_n=400)
        report = verify_limit_bounds(cfg)
        assert any(r.kind == "closed" for r in report.rows)

    def test_bootstrap_requires_larger_n(self):
        with pytest.raises(ConfigError):
            k1_config(rhs_mode="empirical-bootstrap", bootstrap_n=50)

    def test_containment_rhs_never_exceeds_capacity_rhs(self):
        # same interval closed and open, one shared limit replication stream
        cfg = k1_config(
            closed_sets=(ClosedSetTuple("band", (closed_1d(-2.0, 2.0),), None),),
            open_sets=(OpenSetTuple("band", (open_1d(-2.0, 2.0),), None),),
        )
        report = verify_limit_bounds(cfg)
        by_kind = {(r.kind, r.n): r.rhs for r in report.rows}
        for n in cfg.n_grid:
            assert by_kind[("open", n)] <= by_kind[("closed", n)]


def _oracle_frequency(st, xi, aux):
    """Share of replications r with xi[r, j] in st.sets[j] for every j and,
    under an aux box, every aux[r, i] in its closed interval; one
    contains_point call per replication and set."""
    box = st.aux or ()
    inside = [
        all(u.contains_point(x) for u, x in zip(st.sets, xrow))
        and all(lo <= a <= hi for (lo, hi), a in zip(box, arow))
        for xrow, arow in zip(xi, aux)
    ]
    return sum(inside) / len(inside)


def _normal_box_prob(box, sigmas):
    prob = 1.0
    for (lo, hi), sd in zip(box, sigmas):
        prob *= 0.5 * (math.erf(hi / sd / math.sqrt(2.0)) - math.erf(lo / sd / math.sqrt(2.0)))
    return prob


class TestVerifyOracle:
    """verify_limit_bounds at k=2 against frequencies recomputed per
    replication with BoxUnion/OpenBoxUnion.contains_point."""

    AUX = ((-1.0, 1.0),) * 3

    def _cfg(self):
        model = pure_step_model(
            (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25))
        )
        split = BoxUnion(1, (Box((-4.0,), (-1.0,)), Box((0.5,), (4.0,))))
        gaps = OpenBoxUnion(1, (OpenBox((-8.0,), (-0.5,)), OpenBox((0.0,), (8.0,))))
        return VerificationConfig(
            model=model,
            k=2,
            n_grid=(40, 80),
            replications_data=1000,
            replications_limit=1000,
            rho=0.1,
            closed_sets=(
                ClosedSetTuple("split", (split, split), None),
                ClosedSetTuple("split-aux", (split, closed_1d(-INF, 0.0)), self.AUX),
            ),
            open_sets=(
                OpenSetTuple("gaps", (gaps, gaps), None),
                OpenSetTuple("gaps-aux", (gaps, open_1d(-4.0, 4.0)), self.AUX),
            ),
            master_seed=2031,
            rhs_mode="empirical-bootstrap",
            bootstrap_n=160,
        )

    def test_lhs_and_bootstrap_rhs_match_oracle(self):
        cfg = self._cfg()
        fits = fit_table(cfg)
        boot_xi, _, _ = experiments._fit_arrays(
            cfg.model, 2, cfg.bootstrap_n, cfg.master_seed, experiments._TAG_BOOT, 1000, 1
        )
        sigmas = alpha_limit_sigmas(cfg.model)
        bootstrap = verify_limit_bounds(cfg, fits=fits)
        derived = verify_limit_bounds(dataclasses.replace(cfg, rhs_mode="derived"), fits=fits)
        menu = cfg.closed_sets + cfg.open_sets
        assert [(r.n, r.kind, r.name) for r in bootstrap.rows] == [
            (n, st.kind, st.name) for n in cfg.n_grid for st in menu
        ]
        for row, st in zip(bootstrap.rows, menu * len(cfg.n_grid)):
            xi, aux, _ = fits[row.n]
            assert row.lhs == _oracle_frequency(st, xi, aux)
            rhs = 1.0
            for j, union in enumerate(st.sets):
                rhs *= sum(union.contains_point(x) for x in boot_xi[:, j]) / len(boot_xi)
            if st.aux is None:
                assert row.rhs == rhs
            else:
                assert row.rhs == pytest.approx(rhs * _normal_box_prob(st.aux, sigmas), rel=1e-12)
        assert [r.lhs for r in derived.rows] == [r.lhs for r in bootstrap.rows]
        # the limit sets are intervals: hitting a union is far likelier than
        # the point deviation lying in it, and lying inside one far rarer,
        # so only the kind's own comparison passes on the derived side
        for row in bootstrap.rows + derived.rows:
            if row.n == max(cfg.n_grid):
                slack = cfg.mc_slack * math.sqrt(row.lhs_se**2 + row.rhs_se**2)
                if row.kind == "closed":
                    assert row.passed == (row.lhs <= row.rhs + slack)
                else:
                    assert row.passed == (row.lhs >= row.rhs - slack)


class TestTails:
    def test_monotone_and_unit_at_zero(self):
        cfg = k1_config(tail_grid=(0.0, 2.0, 8.0, 32.0), tail_threshold=0.2)
        table = tail_probability_table(cfg)
        for n in cfg.n_grid:
            probs = [p for nn, a, p in table.rows if nn == n]
            assert probs[0] == 1.0
            assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert table.passed


class TestCoverage:
    def test_target_reached(self):
        report = coverage_experiment(k1_config())
        assert report.target == pytest.approx(0.9)
        assert report.coverage >= 0.87
        assert report.passed(0.03)

    def test_deterministic(self):
        cfg = k1_config()
        assert coverage_experiment(cfg) == coverage_experiment(cfg)

    def test_rectangles_widen_as_rho_drops(self):
        wide = coverage_experiment(k1_config(rho=0.05))
        narrow = coverage_experiment(k1_config(rho=0.5))
        assert all(w > n for w, n in zip(wide.mean_widths, narrow.mean_widths))

    def test_coverage_nests_on_shared_seed(self):
        wide = coverage_experiment(k1_config(rho=0.05))
        narrow = coverage_experiment(k1_config(rho=0.5))
        assert all(w or not n for w, n in zip(wide.covered, narrow.covered))
        assert wide.coverage >= narrow.coverage

    def test_noiseless_degenerate_scale(self):
        cfg = k1_config(
            model=pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.0)))
        )
        report = coverage_experiment(cfg)
        assert report.coverage >= 0.9


class TestProductForm:
    def _cfg(self):
        model = pure_step_model(
            (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.2))
        )
        return VerificationConfig(
            model=model,
            k=2,
            n_grid=(120,),
            replications_data=1000,
            replications_limit=1000,
            rho=0.1,
            closed_sets=(
                ClosedSetTuple("lower", (closed_1d(-INF, 0.0), closed_1d(-INF, 0.0)), None),
            ),
            open_sets=(),
            master_seed=555,
        )

    def test_requires_k_at_least_two(self):
        with pytest.raises(ConfigError):
            product_form_check(k1_config())

    def test_joint_close_to_product(self):
        table = product_form_check(self._cfg())
        assert table.n == 120
        row = table.rows[0]
        se = math.sqrt(row.joint_se**2 + row.product_se**2)
        assert row.discrepancy <= 0.05 + 2 * se

    def test_deterministic(self):
        cfg = self._cfg()
        assert product_form_check(cfg) == product_form_check(cfg)


def _replication(model, n, master, path, rep):
    """Replication `rep`'s dataset as the block layout draws it: row
    rep % B of the (B, n) block drawn from substream(master, *path, rep // B)."""
    rows = experiments._block_rows(n)
    x, y = draw_rows(model, substream(master, *path, rep // rows), (rows, n))
    return Dataset(x[rep % rows], y[rep % rows])


class TestFitBlocks:
    """The block worker against one fit_step per replication of the block
    layout, at the default block size and at blocks of 1 and 7 rows."""

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_worker_matches_fit_step(self, monkeypatch, rows, k):
        n = 60
        if rows is not None:
            monkeypatch.setattr(experiments, "_BLOCK_CELLS", rows * n)
        args = (TWO_JUMPS, k, n, 77, (1, n))
        fits = run_chunks(experiments._fit_worker, args, 40, 1, experiments._block_rows(n))
        assert fits.shape == (40, 3 * k + 2)
        for rep, row in enumerate(fits):
            fit = fit_step(_replication(TWO_JUMPS, n, 77, (1, n), rep), k)
            assert row.tobytes() == np.array(fit.tau + fit.alpha + fit.sigma_hat).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_run_is_prefix_of_long_run(self, workers):
        # n = 1000 puts 8 replications in a block, so 11 replications cut
        # block 1 and 40 fill five blocks
        n = 1000
        args, block = (TWO_JUMPS, 2, n, 77, (1, n)), experiments._block_rows(n)
        short = run_chunks(experiments._fit_worker, args, 11, workers, block)
        long = run_chunks(experiments._fit_worker, args, 40, workers, block)
        assert short.shape == (11, 8)
        assert short.tobytes() == long[:11].tobytes()

    @pytest.mark.parametrize("rows", [None, 7])
    def test_coverage_rows_match_build_rectangle(self, monkeypatch, rows):
        n = 80
        if rows is not None:
            monkeypatch.setattr(experiments, "_BLOCK_CELLS", rows * n)
        bounds_tau = ((-3.0, 2.5), (-2.0, 4.0))
        z_lo, z_hi = -1.5, 1.7
        args, block = (TWO_JUMPS, 2, n, 5), experiments._block_rows(n)
        fits = run_chunks(experiments._coverage_worker, args, 40, 1, block)
        got, widths = experiments._rectangle_coverage(TWO_JUMPS, n, fits, bounds_tau, z_lo, z_hi)
        truth = TWO_JUMPS.true_tau + TWO_JUMPS.true_alpha
        covered = []
        for rep in range(40):
            fit = fit_step(_replication(TWO_JUMPS, n, 5, (experiments._TAG_COVER,), rep), 2)
            bounds_alpha = [(s * z_lo, s * z_hi) for s in fit.sigma_hat]
            rect = build_rectangle(fit, n, bounds_tau, bounds_alpha)
            covered.append(all(iv.contains(t) for iv, t in zip(rect, truth)))
            assert widths[rep].tolist() == [iv.width for iv in rect]
        assert got.tolist() == covered
        assert 0 < sum(covered) < 40


class TestMembershipReport:
    def test_always_inside(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        report = membership_report(model, 1, 150, 60, 91)
        assert report.all_inside
        assert report.fraction_inside == 1.0

    def test_worker_invariance(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        a = membership_report(model, 1, 100, 40, 91, workers=1)
        b = membership_report(model, 1, 100, 40, 91, workers=2)
        assert a == b
        # n = 400 puts 20 replications in a block: 15 blocks, which 2 and
        # 3 workers cut into 8 and 12 chunks
        c = membership_report(model, 1, 400, 300, 91, workers=1)
        for workers in (2, 3):
            assert membership_report(model, 1, 400, 300, 91, workers=workers) == c

    def test_worker_invariance_k2(self):
        # the two-jump model at sd 1.0 puts some deviations outside a window
        noise = NoiseLaw("gaussian", (0.0, 1.0))
        model = pure_step_model((0.3, 0.6), (0.0, 1.0, 0.0), UNIFORM01, noise)
        a = membership_report(model, 2, 200, 300, 92, workers=1)
        assert 0.9 < a.fraction_inside < 1.0
        for workers in (2, 3):
            assert membership_report(model, 2, 200, 300, 92, workers=workers) == a

    def test_k4_run(self):
        tau = (0.2, 0.4, 0.6, 0.8)
        noise = NoiseLaw("gaussian", (0.0, 0.25))
        model = pure_step_model(tau, (0.0, 1.0, 0.0, 1.0, 0.0), UNIFORM01, noise)
        report = membership_report(model, 4, 200, 60, 93)
        assert report.all_inside
        assert report.to_csv().splitlines()[0] == "rep,inside,t1,t2,t3,t4"

    def test_rejects_bad_replications_and_k(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        for reps in (0, -1):
            with pytest.raises(ValueError, match="replications"):
                membership_report(model, 1, 100, reps, 91)
        for k in (0, 2):
            with pytest.raises(ValueError, match="^k "):
                membership_report(model, k, 100, 10, 91)

    @pytest.mark.parametrize(
        "tau, n, sd",
        [
            ((0.5,), 200, 1.0),
            ((0.3, 0.6), 150, 0.25),
            ((0.3, 0.6), 150, 1.0),
            ((0.25, 0.5, 0.75), 120, 1.0),
        ],
    )
    def test_block_membership_matches_joint_grid(self, tau, n, sd):
        # fitted deviations, and the same with one coordinate moved onto a
        # finite end of its section's argmin intervals or of its window, or
        # one float step to either side of it
        k = len(tau)
        alpha = tuple(float(j % 2) for j in range(k + 1))
        model = pure_step_model(tau, alpha, UNIFORM01, NoiseLaw("gaussian", (0.0, sd)))
        x, y = draw_rows(model, substream(31, k, n), (10, n))
        taus, alphas, _ = fit_rows(x, y, k)
        seen = set()
        for r, fitted in enumerate(n * (taus - np.asarray(tau))):
            data = Dataset(x[r], y[r])
            rp = rescaled_process(data, tau, alphas[r], n)
            points = [fitted]
            for j, (sec, window) in enumerate(zip(rp.sections, rp.window)):
                ends = {e for b in argmin_set(sec).boxes for e in (b.lo[0], b.hi[0])} | set(window)
                for e in sorted(ends - {-INF, INF}):
                    for v in (np.nextafter(e, -INF), e, np.nextafter(e, INF)):
                        points.append(np.where(np.arange(k) == j, v, fitted))
            points = np.array(points)
            rows = np.full(len(points), r)
            got = experiments._member(x[rows], y[rows], tau, alphas[rows], n, points)
            want = [joint_membership(data, tau, alphas[r], n, p) for p in points]
            assert got.tolist() == want
            seen.update(want)
        assert seen == {True, False}


class TestAlphaSigmas:
    def test_pure_step_closed_form(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        sig = alpha_limit_sigmas(model)
        assert sig == pytest.approx((0.25 / math.sqrt(0.5), 0.25 / math.sqrt(0.5)))

    def test_polynomial_segments_fall_back(self):
        from stepargmin.stepfit import RegressionModelSpec

        model = RegressionModelSpec(
            segments=((0.0, 1.0), (2.0,)),
            x_law=UNIFORM01,
            noise=NoiseLaw("gaussian", (0.0, 0.1)),
            true_tau=(0.5,),
            true_alpha=(0.25, 2.0),
        )
        assert alpha_limit_sigmas(model) is None


CONFIG_TEXT = """
master_seed = 777
k = 1
n_grid = 50, 100
replications_data = 1000
replications_limit = 1000
rho = 0.1
mc_slack = 2.0
coverage_n = 80
coverage_replications = 1000
coverage_tolerance = 0.05
model.tau = 0.5
model.alpha = 0, 1
model.x_law = uniform(0, 1)
model.noise = gaussian(0, 0.25)
set closed lower = [-inf,0]
set closed band = [-1,1] ; [3,4] @ [-2,2] | [-2,2]
set open win = (-4,4)
"""


class TestConfigParsing:
    def test_full_parse(self):
        cfg = parse_verification_config(CONFIG_TEXT)
        assert cfg.master_seed == 777
        assert cfg.n_grid == (50, 100)
        assert cfg.model.true_alpha == (0.0, 1.0)
        assert len(cfg.closed_sets) == 2
        band = cfg.closed_sets[1]
        assert band.sets[0].boxes == (Box((-1.0,), (1.0,)), Box((3.0,), (4.0,)))
        assert band.aux == ((-2.0, 2.0), (-2.0, 2.0))
        assert cfg.open_sets[0].sets[0].boxes[0].lo == (-4.0,)

    def test_missing_key_named(self):
        text = "\n".join(
            ln for ln in CONFIG_TEXT.splitlines() if not ln.startswith("replications_data")
        )
        with pytest.raises(ConfigError, match="replications_data"):
            parse_verification_config(text)

    def test_bad_set_line(self):
        with pytest.raises(ConfigError):
            parse_verification_config(CONFIG_TEXT + "\nset diagonal thing = [-1,1]\n")

    @pytest.mark.parametrize(
        "line, token",
        [
            ("set closed c = [1,2,3]", "[1,2,3]"),
            ("set closed c = [1,x]", "[1,x]"),
            ("set open o = (1,2,3)", "(1,2,3)"),
            ("set open o = [1,2]", "[1,2]"),
            ("set closed c = [0,1] @ [1,2,3] | [0,1]", "[1,2,3]"),
            ("set closed c = [1,0]", "[1,0]"),
            ("set closed c = [0,nan]", "[0,nan]"),
            ("set open o = (2,2)", "(2,2)"),
            ("set closed c = [0,1] @ [2,-2] | [0,1]", "[2,-2]"),
            ("set closed c = [0,1] @ [0,1] | [nan,1]", "[nan,1]"),
            ("set closed c = ;", ";"),
            ("set open o = ; ;", "; ;"),
        ],
    )
    def test_malformed_interval_named(self, line, token):
        with pytest.raises(ConfigError) as info:
            parse_verification_config(CONFIG_TEXT + "\n" + line + "\n")
        assert repr(token) in str(info.value)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("coverage_tolerence = 0.5", "line 19: unknown key 'coverage_tolerence'"),
            ("rho = 0.5", "line 19: repeated key 'rho'"),
            ("set closed lower = [-inf,1]", "line 19: repeated key 'set closed lower'"),
        ],
    )
    def test_bad_key_names_line(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            parse_verification_config(CONFIG_TEXT + extra + "\n")

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("n_grid = 50, 100", "n_grid = 5x0", "n_grid"),
            ("gaussian(0, 0.25)", "gaussian(0, abc)", "'gaussian(0, abc)'"),
            ("uniform(0, 1)", "uniform(0, 1e)", "'uniform(0, 1e)'"),
            ("model.alpha = 0, 1", "model.alpha = 0, one", "model.alpha"),
            ("master_seed = 777", "master_seed = 7.5", "master_seed"),
        ],
    )
    def test_bad_number_named(self, old, new, named):
        with pytest.raises(ConfigError) as info:
            parse_verification_config(CONFIG_TEXT.replace(old, new))
        assert named in str(info.value)

    def test_segments(self):
        text = CONFIG_TEXT + "model.segments = poly(0) ; poly(1, 0.5)\n"
        assert parse_verification_config(text).model.segments == ((0.0,), (1.0, 0.5))
        with pytest.raises(ConfigError, match="poly"):
            parse_verification_config(text.replace("poly(1, 0.5)", "cubic(1, 0.5)"))

    def test_replication_floor(self):
        with pytest.raises(ConfigError):
            k1_config(replications_data=10)

    def test_n_grid_must_increase(self):
        with pytest.raises(ConfigError):
            k1_config(n_grid=(100, 100))

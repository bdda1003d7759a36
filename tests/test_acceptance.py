"""Acceptance suite: one test per criterion, each printing a pass line with
its headline numbers (run with -s to see them live)."""

import math
import time

import numpy as np
from scipy.stats import norm as scipy_norm

from corpus import (
    exhaustive_fit,
    oracle_argmin,
    pure_step_model,
    random_function,
    random_shelled_function,
    raster_membership,
)
from stepargmin.argmin import (
    INF,
    Box,
    BoxUnion,
    OpenBox,
    OpenBoxUnion,
    argmin_set,
    contained_in_open,
    hits,
    lower_orthant_closed,
    lower_orthant_open,
    orthant_checks,
)
from stepargmin.cpoisson import (
    CompoundPoissonSpec,
    JumpLaw,
    estimate_capacity,
    estimate_containment,
    inverse_normal_cdf,
    sample_extreme_minimizers,
)
from stepargmin.experiments import (
    ClosedSetTuple,
    OpenSetTuple,
    VerificationConfig,
    coverage_experiment,
    gamma_of,
    membership_report,
    product_form_check,
    verify_limit_bounds,
    verify_tables,
)
from stepargmin.stepfit import (
    Dataset,
    NoiseLaw,
    StepModel,
    XLaw,
    fit_step,
    optimal_levels,
    sse,
)

MASTER = 20260808

UNIFORM01 = XLaw("uniform", (0.0, 1.0))
NOISELESS = NoiseLaw("gaussian", (0.0, 0.0))
GAUSS25 = NoiseLaw("gaussian", (0.0, 0.25))


def closed_1d(lo, hi):
    return BoxUnion(1, (Box((lo,), (hi,)),))


def open_1d(lo, hi):
    return OpenBoxUnion(1, (OpenBox((lo,), (hi,)),))


def _corpus(dim, count=1000, max_breaks=12):
    rng = np.random.default_rng((MASTER, 1, dim))
    return [random_function(rng, dim, max_breaks=max_breaks) for _ in range(count)]


def _axes_of(f):
    try:
        return f.axes
    except AttributeError:
        return (f.breakpoints,)


def _report(num, name, detail):
    print(f"criterion {num:02d} ({name}): PASS  [{detail}]")


def test_c01_argmin_oracle_equivalence():
    t0 = time.monotonic()
    total = 0
    for dim in (1, 2, 3):
        for f in _corpus(dim):
            computed = argmin_set(f)
            oracle_boxes, member, _ = oracle_argmin(f)
            assert computed.boxes == oracle_boxes
            assert np.array_equal(raster_membership(computed, _axes_of(f)), member)
            total += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(1, "argmin oracle equivalence", f"{total} functions, {elapsed:.1f}s")


def test_c02_orthant_equivalence_suite():
    # the corpus has few compact 2-D and 3-D argmin sets, so functions with
    # a lifted outer shell, compact and often of several boxes, join it
    rng = np.random.default_rng((MASTER, 2))
    shelled = np.random.default_rng((MASTER, 2, 0))
    compact = {1: 0, 2: 0, 3: 0}
    strict = 0
    for dim in compact:
        for f in _corpus(dim) + [random_shelled_function(shelled, dim) for _ in range(300)]:
            if f is None or not argmin_set(f).bounded:
                continue
            a = argmin_set(f)
            compact[dim] += 1
            for _ in range(25):
                x = rng.uniform(-8.0, 8.0, size=dim)
                hit_lower, small_le, inside_open, large_lt = orthant_checks(f, x)
                assert hit_lower == hits(a, lower_orthant_closed(x))
                assert inside_open == contained_in_open(a, lower_orthant_open(x))
                # the lexicographic extremes are the coordinatewise ones in
                # 1-D only; in 2-D and 3-D the converses can fail
                if dim == 1:
                    assert hit_lower == small_le
                    assert inside_open == large_lt
                else:
                    assert hit_lower or not small_le
                    assert large_lt or not inside_open
                    strict += (hit_lower, large_lt) != (small_le, inside_open)
    checked = sum(compact.values())
    assert checked >= 200 and compact[2] >= 100 and compact[3] >= 100
    _report(
        2,
        "orthant equivalences",
        f"{checked} compact functions ({compact[2]} 2-D, {compact[3]} 3-D) x 25 points, "
        f"{strict} 2-D/3-D points where a converse fails",
    )


def test_c03_dp_matches_exhaustive():
    rng = np.random.default_rng((MASTER, 3))
    y_pool = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 13))
        x = rng.choice(np.arange(1.0, 9.0), size=n, replace=True)
        if np.unique(x).size < 2:
            continue
        data = Dataset(x, rng.choice(y_pool, size=n))
        k_max = min(3, np.unique(x).size - 1)
        k = int(rng.integers(0, k_max + 1))
        fit = fit_step(data, k)
        oracle_total, oracle_tau = exhaustive_fit(data, k)
        assert fit.tau == oracle_tau
        oracle_sse = sse(data, StepModel(oracle_tau, optimal_levels(data, oracle_tau)))
        assert fit.sse == oracle_sse
        checked += 1
    _report(3, "dynamic program vs exhaustive", f"{checked} datasets, exact agreement")


def test_c04_rescaled_membership():
    for label, noise in (("noiseless", NOISELESS), ("gaussian", GAUSS25)):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, noise)
        report = membership_report(model, 1, 200, 200, (MASTER + 4))
        assert report.fraction_inside == 1.0, label
    _report(4, "rescaled argmin membership", "2 models x 200 replications, all inside")


def test_c05_compound_poisson_closed_forms():
    t0 = time.monotonic()
    spec = CompoundPoissonSpec(
        rate_right=1.0,
        rate_left=1.0,
        jump_right=JumpLaw("point", (1.0,)),
        jump_left=JumpLaw("point", (1.0,)),
        window_initial=8.0,
        window_growth=2.0,
        max_window=64.0,
    )
    reps = 100_000
    samples = sample_extreme_minimizers(spec, reps, MASTER + 50)
    p_half = float(np.mean([s.xi_max <= math.log(2.0) for s in samples]))
    assert abs(p_half - 0.5) <= 0.01
    nu = estimate_containment(
        spec, open_1d(-math.log(2.0), math.log(2.0)), reps, MASTER + 51
    )
    assert abs(nu.value - 0.25) <= 0.01
    mu = estimate_capacity(spec, closed_1d(-INF, 0.0), reps, MASTER + 52)
    assert mu.value >= 0.999
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    _report(
        5,
        "compound Poisson closed forms",
        f"p={p_half:.4f}, nu={nu.value:.4f}, mu={mu.value:.4f}, {elapsed:.0f}s",
    )


def test_c06_normal_quantile_accuracy():
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    worst = max(abs(scipy_norm.cdf(inverse_normal_cdf(float(p))) - p) for p in grid)
    assert worst <= 1e-9
    assert abs(inverse_normal_cdf(0.975) - 1.959964) <= 1e-5
    _report(6, "normal quantile", f"max |cdf(icdf(p)) - p| = {worst:.2e}")


def test_c07_gamma_formula():
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    ref1 = float((Decimal(1.0 - 0.05).ln() / 3).exp())
    ref2 = float((Decimal(1.0 - 0.1).ln() / 5).exp())
    err1 = abs(gamma_of(0.05, 1) - ref1)
    err2 = abs(gamma_of(0.1, 2) - ref2)
    assert err1 <= 1e-12 and err2 <= 1e-12
    _report(7, "joint-level root formula", f"errors {err1:.1e}, {err2:.1e}")


def _c08_config():
    model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, GAUSS25)
    aux_box = ((-0.7, 0.7), (-0.7, 0.7))
    closed_sets = (
        ClosedSetTuple("all", (closed_1d(-INF, INF),), None),
        ClosedSetTuple("lower0", (closed_1d(-INF, 0.0),), None),
        ClosedSetTuple("lower-1", (closed_1d(-INF, -1.0),), None),
        ClosedSetTuple("band11", (closed_1d(-1.0, 1.0),), None),
        ClosedSetTuple("right", (closed_1d(0.5, 3.0),), None),
        ClosedSetTuple("lower1-aux", (closed_1d(-INF, 1.0),), aux_box),
    )
    open_sets = (
        OpenSetTuple("all", (open_1d(-INF, INF),), None),
        OpenSetTuple("win2", (open_1d(-2.0, 2.0),), None),
        OpenSetTuple("win4", (open_1d(-4.0, 4.0),), None),
        OpenSetTuple("win8", (open_1d(-8.0, 8.0),), None),
        OpenSetTuple("lower2", (open_1d(-INF, 2.0),), None),
        OpenSetTuple("win4-aux", (open_1d(-4.0, 4.0),), aux_box),
    )
    return VerificationConfig(
        model=model,
        k=1,
        n_grid=(100, 300, 1000),
        replications_data=2000,
        replications_limit=100_000,
        rho=0.1,
        closed_sets=closed_sets,
        open_sets=open_sets,
        master_seed=MASTER + 8,
        mc_slack=2.0,
    )


def test_c08_limit_bound_inequalities():
    config = _c08_config()
    report = verify_limit_bounds(config, verify_tables(config))
    judged = [r for r in report.rows if r.passed is not None]
    assert judged and all(r.passed for r in judged)
    assert report.passed
    trend_ns = sorted({r.n for r in report.rows})
    assert trend_ns == [100, 300, 1000]
    _report(
        8,
        "hitting/containment bounds",
        f"{len(judged)} verdicts at n=1000, trend over n={trend_ns}",
    )


def test_c09_coverage():
    t0 = time.monotonic()
    model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, GAUSS25)
    config = VerificationConfig(
        model=model,
        k=1,
        n_grid=(500,),
        replications_data=1000,
        replications_limit=50_000,
        rho=0.1,
        closed_sets=(),
        open_sets=(),
        master_seed=MASTER + 9,
        coverage_n=500,
        coverage_replications=1000,
        coverage_tolerance=0.03,
    )
    report = coverage_experiment(config)
    elapsed = time.monotonic() - t0
    assert report.coverage >= 0.87
    assert elapsed <= 600.0
    _report(9, "rectangle coverage", f"coverage={report.coverage:.3f}, {elapsed:.0f}s")


def test_c10_product_form():
    model = pure_step_model((1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, GAUSS25)
    aux_box = ((-0.75, 0.75),) * 3
    config = VerificationConfig(
        model=model,
        k=2,
        n_grid=(1000,),
        replications_data=1500,
        replications_limit=1000,
        rho=0.1,
        closed_sets=(
            ClosedSetTuple("lower-both", (closed_1d(-INF, 0.0), closed_1d(-INF, 0.0)), None),
            ClosedSetTuple("lower-aux", (closed_1d(-INF, 0.0), closed_1d(-INF, 0.0)), aux_box),
            ClosedSetTuple("bands", (closed_1d(-3.0, 3.0), closed_1d(-3.0, 3.0)), None),
        ),
        open_sets=(OpenSetTuple("win-both", (open_1d(-4.0, 4.0), open_1d(-4.0, 4.0)), None),),
        master_seed=MASTER + 10,
    )
    table = product_form_check(config, verify_tables(config))
    worst = 0.0
    for row in table.rows:
        comb = math.sqrt(row.joint_se**2 + row.product_se**2)
        assert row.discrepancy <= 0.03 + 2.0 * comb
        worst = max(worst, row.discrepancy)
    _report(10, "joint vs product form", f"max discrepancy {worst:.4f} over {len(table.rows)} rows")


def test_c11_worker_independent_reports():
    # reduced-size renderings of the criterion 4, 8, and 9 pipelines; the
    # determinism property is size-independent
    model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, GAUSS25)
    config = VerificationConfig(
        model=model,
        k=1,
        n_grid=(60, 120),
        replications_data=1000,
        replications_limit=1000,
        rho=0.1,
        closed_sets=(ClosedSetTuple("lower0", (closed_1d(-INF, 0.0),), None),),
        open_sets=(OpenSetTuple("win4", (open_1d(-4.0, 4.0),), None),),
        master_seed=MASTER + 11,
        coverage_n=100,
        coverage_replications=1000,
    )
    pairs = []
    for workers in (1, 2):
        member = membership_report(model, 1, 100, 80, MASTER + 12, workers=workers)
        verify = verify_limit_bounds(config, verify_tables(config, workers))
        coverage = coverage_experiment(config, workers=workers)
        pairs.append(
            (
                member.to_csv().encode(),
                verify.to_csv().encode(),
                coverage.summary_text().encode() + coverage.rows_csv().encode(),
            )
        )
    assert pairs[0] == pairs[1]
    _report(11, "worker-count determinism", "byte-identical reports for workers 1 vs 2")

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from corpus import (
    block_sums,
    cost_row,
    dataset_to_csv,
    exhaustive_fit,
    pure_step_model,
    reference_cuts,
)
from stepargmin import stepfit
from stepargmin.argmin import _argmin_cells, argmin_set
from stepargmin.cpoisson import InvalidSpecError, JumpLaw
from stepargmin.experiments import _member
from stepargmin.rng import substream
from stepargmin.stepfit import (
    CollapsedOrderError,
    Dataset,
    DatasetFormatError,
    EmptySegmentError,
    NoiseLaw,
    NonpositiveJumpMeanError,
    RegressionModelSpec,
    StepModel,
    TooFewDistinctXError,
    XLaw,
    YRangeError,
    dataset_from_csv,
    derive_limit_spec,
    draw_rows,
    fit_rows,
    fit_step,
    optimal_levels,
    rescaled_process,
    sse,
    synthesize,
)

UNIFORM01 = XLaw("uniform", (0.0, 1.0))
NOISELESS = NoiseLaw("gaussian", (0.0, 0.0))


def random_dataset(rng, n, n_distinct=None):
    pool = np.arange(1.0, 1.0 + (n_distinct or n))
    x = rng.choice(pool, size=n, replace=True)
    while np.unique(x).size < 2:
        x = rng.choice(pool, size=n, replace=True)
    y = rng.choice([-1.0, 0.0, 1.0, 2.0], size=n)
    return Dataset(x, y)


class TestSse:
    def test_perfect_fit(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        assert sse(d, StepModel((2.0,), (0.0, 1.0))) == 0.0

    def test_flat_model(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        assert sse(d, StepModel((), (0.5,))) == 1.0

    def test_left_closed_segments(self):
        d = Dataset([1, 2, 3], [0, 1, 0])
        assert sse(d, StepModel((1.0,), (0.0, 0.5))) == 0.5


class TestOptimalLevels:
    def test_segment_means(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        assert optimal_levels(d, (2.0,)) == (0.0, 1.0)
        assert optimal_levels(Dataset([1, 2, 3, 4], [0, 0, 1, 3]), (2.0,)) == (0.0, 2.0)

    def test_no_breakpoints(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        assert optimal_levels(d, ()) == (0.5,)

    # an empty first, middle and last segment
    @pytest.mark.parametrize("t", [(0.5, 2.0), (2.0, 2.5), (2.0, 10.0)])
    def test_empty_segment(self, t):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        with pytest.raises(EmptySegmentError):
            optimal_levels(d, t)

    def test_beats_random_levels(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 30, 10)
        t = (3.0, 6.0)
        best = sse(d, StepModel(t, optimal_levels(d, t)))
        for _ in range(100):
            a = tuple(rng.normal(size=3))
            assert best <= sse(d, StepModel(t, a))


class TestFitStep:
    def test_perfect_step(self):
        fit = fit_step(Dataset([1, 2, 3, 4], [0, 0, 1, 1]), 1)
        assert fit.tau == (2.0,)
        assert fit.alpha == (0.0, 1.0)
        assert fit.sse == 0.0
        assert fit.segment_counts == (2, 2)

    def test_tie_breaks_left(self):
        fit = fit_step(Dataset([1, 2, 3], [0, 1, 0]), 1)
        assert fit.tau == (1.0,)
        assert fit.sse == 0.5

    def test_k_zero(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        fit = fit_step(d, 0)
        assert fit.alpha == (0.5,)
        assert fit.sse == sse(d, StepModel((), (0.5,)))

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctXError):
            fit_step(Dataset([1, 1, 2, 2], [0, 0, 1, 1]), 2)

    def test_sse_matches_recomputation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = random_dataset(rng, 20, 8)
            fit = fit_step(d, 2)
            assert fit.sse == sse(d, StepModel(fit.tau, fit.alpha))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = random_dataset(rng, 25, 10)
            costs = [fit_step(d, k).sse for k in range(4)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_matches_exhaustive_small(self):
        rng = np.random.default_rng(10)
        for _ in range(80):
            n = int(rng.integers(4, 12))
            d = random_dataset(rng, n, int(rng.integers(3, n + 1)))
            for k in range(0, 3):
                if np.unique(d.x).size < k + 1:
                    continue
                fit = fit_step(d, k)
                total, tau = exhaustive_fit(d, k)
                assert fit.tau == tau
                assert fit.sse == sse(d, StepModel(tau, optimal_levels(d, tau)))

    def test_sigma_hat_formula(self):
        d = Dataset([1, 1, 2, 2], [0.0, 2.0, 5.0, 7.0])
        fit = fit_step(d, 1)
        assert fit.tau == (1.0,)
        # population variance 1.0 in both segments, each with mass 1/2
        assert fit.sigma_hat == (math.sqrt(2.0), math.sqrt(2.0))

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        d = random_dataset(rng, 40, 15)
        assert fit_step(d, 2) == fit_step(d, 2)


def _prefix_sums(data):
    # `stepfit._prefix_sums` of the dataset as one row in stable x order,
    # over its runs of tied x
    order = np.argsort(data.x, kind="stable")
    xs, ys = data.x[order], data.y[order]
    starts = np.flatnonzero(np.append(True, xs[1:] != xs[:-1]))
    vals, cum_n, cum_s, cum_q = stepfit._prefix_sums(xs[None], ys[None], starts)
    return vals[0], cum_n, cum_s[0], cum_q[0]


def _last_layer_inputs(data):
    # arguments of the k=2 fit's one suffix layer: the trailing-segment
    # costs, the last admissible first breakpoint and the full band, every
    # row s from column s to cmax
    vals, cum_n, cum_s, cum_q = _prefix_sums(data)
    m = vals.size
    tail_s = cum_s[m] - cum_s[:m]
    tail = (cum_q[m] - cum_q[:m]) - (tail_s * tail_s) / (cum_n[m] - cum_n[:m])
    cmax = m - 2
    return tail, cmax, cum_n, cum_s, cum_q, np.arange(cmax + 1), np.full(cmax + 1, cmax)


class TestTranslationInvariance:
    # on this dataset, uncentred prefix sums move the k=1 breakpoint from
    # 0.36929 to 0.37424 at y + 1e8
    @pytest.mark.parametrize("offset", [1e6, 1e8])
    @pytest.mark.parametrize("k", [1, 2])
    def test_offset_keeps_breakpoints(self, offset, k):
        model = pure_step_model((0.37,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        d = synthesize(model, 200, 3)
        shifted = Dataset(d.x, d.y + offset)
        assert fit_step(shifted, k).tau == fit_step(d, k).tau

    def test_integer_offset_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = random_dataset(rng, 20, 8)
            shifted = Dataset(d.x, d.y + 1e9)
            for k in range(4):
                fit = fit_step(d, k)
                assert fit_step(shifted, k).tau == fit.tau


class TestYRange:
    # the data jump right after x = 1, 3 and 5; at 1e200 the centred
    # squares overflow, at 1e150 they do not
    STEPS = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0, 3.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_squares_raise(self, k):
        with pytest.raises(YRangeError, match="y spreads too widely"):
            fit_step(Dataset(np.arange(8.0), np.array(self.STEPS) * 1e200), k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_block_with_overflowing_row_raises(self, k):
        x = np.tile(np.arange(8.0), (3, 1))
        y = np.tile(self.STEPS, (3, 1))
        y[1] *= 1e200
        with pytest.raises(YRangeError, match="y spreads too widely"):
            fit_rows(x, y, k)

    def test_wide_but_finite_fits(self):
        d = Dataset(np.arange(8.0), np.array(self.STEPS) * 1e150)
        assert fit_step(d, 1).tau == (5.0,)
        assert fit_step(d, 3).tau == (1.0, 3.0, 5.0)


class TestChunkedSuffixSweep:
    # 1 cell gives one-row chunks; 7 cells one-row chunks until rows are 3
    # wide, then chunks of 2, 3 and 7 rows; 64 cells several rows with a
    # masked lower triangle
    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_matches_exhaustive(self, monkeypatch, cells):
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", cells)
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(5, 13))
            d = random_dataset(rng, n, int(rng.integers(4, n + 1)))
            for k in range(1, 4):
                if np.unique(d.x).size < k + 1:
                    continue
                assert fit_step(d, k).tau == exhaustive_fit(d, k)[1]

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_layers_bit_identical(self, monkeypatch, cells):
        model = pure_step_model(
            (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25))
        )
        d = synthesize(model, 300, 17)
        fits = {k: fit_step(d, k) for k in (2, 3)}
        layer = stepfit._suffix_layer(*_last_layer_inputs(d))
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", cells)
        assert np.array_equal(stepfit._suffix_layer(*_last_layer_inputs(d)), layer)
        for k, fit in fits.items():
            assert fit_step(d, k) == fit

    def test_layer_matches_full_matrix(self):
        rng = np.random.default_rng(43)
        d = Dataset(rng.uniform(size=120), rng.normal(size=120))
        args = _last_layer_inputs(d)
        nxt, cmax, cum_n, cum_s, cum_q = args[:5]
        m = nxt.size
        full = np.full((m, m), np.inf)
        for s in range(cmax + 1):
            row = cost_row(s, cum_n, cum_s, cum_q)[: cmax - s + 1]
            full[s, s : cmax + 1] = row + nxt[s + 1 : cmax + 2]
        assert np.array_equal(stepfit._suffix_layer(*args), full.min(axis=1))

    def test_memory_is_linear(self):
        model = pure_step_model(
            (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25))
        )
        d = synthesize(model, 3000, 19)
        assert np.unique(d.x).size == 3000
        for k in (2, 3):
            tracemalloc.start()
            try:
                fit_step(d, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a 3000 x 3000 float64 matrix alone is 72 MB
            assert peak < 4 * 2**20, k

    @pytest.mark.parametrize("k", [2, 3])
    def test_band_search_memory_is_linear(self, monkeypatch, k):
        # the c10 block at n = 300 (27 rows): each band search holds a few
        # (B, m) temporaries (measured: at most 9.3 of them), and the whole
        # block fit O(B·m + _CHUNK_CELLS) (measured: 10.6 units of
        # B·(n+1) + _CHUNK_CELLS floats); the layer's triangle is 150 times
        # B·m
        search = stepfit._band
        peaks, before = [], []

        def measured(nxt, *args):
            start, peak = tracemalloc.get_traced_memory()
            before.append(peak)
            tracemalloc.reset_peak()
            band = search(nxt, *args)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / (8 * nxt.size))
            return band

        monkeypatch.setattr(stepfit, "_band", measured)
        x, y = _stacked(TestFitRows.TWO_JUMPS, 300, range(27))
        tracemalloc.start()
        try:
            fit_rows(x, y, k)
            peak = max(before + [tracemalloc.get_traced_memory()[1]])
        finally:
            tracemalloc.stop()
        assert len(peaks) == k - 1 and max(peaks) <= 12
        assert peak <= 16 * 8 * (x.size + x.shape[0] + stepfit._CHUNK_CELLS)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _stacked(model, n, seeds):
    """One `synthesize` dataset per seed, as (len(seeds), n) arrays."""
    data = [synthesize(model, n, seed) for seed in seeds]
    return np.array([d.x for d in data]), np.array([d.y for d in data])


def _segment_sum(part):
    # the summation rule of levels and scales: one segment of the x-sorted
    # row, reduced on its own by np.add.reduceat
    return np.add.reduceat(part, [0])[0]


def assert_rows_match_reference(x, y, k):
    """fit_rows on the block (x, y) gives, row by row, the bits of
    fit_step's tau, alpha and sigma_hat.  tau is also the unpruned
    reference program's on the row's own `block_sums`; alpha the mean of
    each segment of the stable x-sorted y, summed on its own (and
    optimal_levels), sigma_hat the two-pass variance about it summed the
    same way; both lie within a few rounding errors of np.mean and np.var
    per segment."""
    tau, alpha, sigma = fit_rows(x, y, k)
    assert tau.shape == (x.shape[0], k) and alpha.shape == sigma.shape == (x.shape[0], k + 1)
    eps = np.finfo(float).eps
    for r in range(x.shape[0]):
        d = Dataset(x[r], y[r])
        vals, cum_n, cum_s, cum_q = block_sums(d)
        assert _bits(tau[r]) == _bits(vals[reference_cuts(cum_n, cum_s[None], cum_q[None], k)[0]])
        fit = fit_step(d, k)
        assert _bits(tau[r]) == _bits(fit.tau)
        assert _bits(alpha[r]) == _bits(fit.alpha)
        assert _bits(sigma[r]) == _bits(fit.sigma_hat)
        assert _bits(fit.alpha) == _bits(optimal_levels(d, fit.tau))
        seg = np.searchsorted(fit.tau, d.x, side="left")
        ys = d.y[np.argsort(d.x, kind="stable")]
        assert fit.segment_counts == tuple(np.bincount(seg, minlength=k + 1).tolist())
        edges = np.cumsum((0,) + fit.segment_counts)
        levels, scales = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            part = ys[lo:hi]
            level = _segment_sum(part) / (hi - lo)
            levels.append(level)
            var = _segment_sum((part - level) ** 2) / (hi - lo)
            scales.append(math.sqrt(var / ((hi - lo) / d.n)))
        assert _bits(fit.alpha) == _bits(levels)
        assert _bits(fit.sigma_hat) == _bits(scales)
        # another summation order moves a mean by a few rounding errors of
        # its terms' size, and a variance by a few of its own size
        for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            part = ys[lo:hi]
            size = float(np.mean(np.abs(part)))
            assert abs(fit.alpha[j] - float(np.mean(part))) <= 8 * eps * size
            scale = math.sqrt(float(np.var(part)) / ((hi - lo) / d.n))
            assert abs(fit.sigma_hat[j] - scale) <= 8 * eps * scale


class TestFitRows:
    TWO_JUMPS = pure_step_model(
        (1.0 / 3.0, 2.0 / 3.0), (0.0, 1.0, 0.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25))
    )

    @pytest.mark.parametrize("n, rows", [(30, 40), (300, 9), (500, 6)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_synthesized_rows(self, n, rows, k):
        x, y = draw_rows(self.TWO_JUMPS, substream(1000 * n, rows), (rows, n))
        assert_rows_match_reference(x, y, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_permuted_observations(self, k):
        # the levels and scales are sums over the x-sorted row, so the order
        # of a row's (x, y) pairs changes no bit of the fit on distinct x
        x, y = _stacked(self.TWO_JUMPS, 300, range(40))
        rng = np.random.default_rng(k)
        order = np.array([rng.permutation(300) for _ in range(40)])
        fit = fit_rows(x, y, k)
        permuted = fit_rows(np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1), k)
        for a, b in zip(fit, permuted):
            assert _bits(a) == _bits(b)

    # the k>=2 layers swept with a leading axis of 12 datasets: chunks of
    # one row of every dataset, then of 4 and 17 rows at first
    @pytest.mark.parametrize("cells", [1, 2048, 8192])
    def test_row_axis_chunks(self, monkeypatch, cells):
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", cells)
        x, y = _stacked(self.TWO_JUMPS, 40, range(12))
        for k in (2, 3):
            assert_rows_match_reference(x, y, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_ties_in_y(self, k):
        # distinct x, y in {0, 1, 2}: many exactly tied segment costs
        rng = np.random.default_rng(51)
        x = np.array([rng.permutation(40) for _ in range(30)], dtype=float)
        y = rng.integers(0, 3, size=x.shape).astype(float)
        assert_rows_match_reference(x, y, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_repeated_x_row_falls_back(self, k, monkeypatch):
        # the row whose x repeats is a block of its own over its 40 runs of
        # tied x; the other three rows are one block of single observations
        x, y = _stacked(self.TWO_JUMPS, 50, [7, 8, 9, 10])
        x[2, :10] = x[2, 10:20]
        blocks = []
        cuts = stepfit._cuts
        monkeypatch.setattr(
            stepfit, "_cuts", lambda n, s, q, k: blocks.append(s.shape) or cuts(n, s, q, k)
        )
        assert_rows_match_reference(x, y, k)
        assert blocks[:2] == [(1, 41), (3, 51)]
        tau = fit_rows(x[2:3], y[2:3], k)[0][0]
        assert tuple(tau.tolist()) == exhaustive_fit(Dataset(x[2], y[2]), k)[1]

    def test_prefix_sums_match_block_sums(self):
        # the builder's sums over single observations (no starts) and over
        # the runs of tied x are `block_sums`' bit for bit
        x, y = _stacked(self.TWO_JUMPS, 50, [7, 8])
        x[1, :10] = x[1, 10:20]
        distinct = Dataset(x[0], y[0])
        order = np.argsort(distinct.x)
        got = stepfit._prefix_sums(distinct.x[order][None], distinct.y[order][None])
        assert [_bits(a) for a in got] == [_bits(a) for a in block_sums(distinct)]
        tied = Dataset(x[1], y[1])
        assert [_bits(a) for a in _prefix_sums(tied)] == [_bits(a) for a in block_sums(tied)]
        assert _prefix_sums(tied)[0].size == 40

    def test_too_few_distinct_x(self):
        with pytest.raises(TooFewDistinctXError):
            fit_rows(np.array([[0.1, 0.2, 0.3]]), np.array([[0.0, 1.0, 0.0]]), 3)


def _all_fits(x, y, k):
    # fit_rows on the block, then fit_step on every row, as bytes
    fits = [_bits(a) for a in fit_rows(x, y, k)]
    for r in range(x.shape[0]):
        fit = fit_step(Dataset(x[r], y[r]), k)
        fits.append(_bits(fit.tau) + _bits(fit.alpha) + _bits(fit.sigma_hat))
    return fits


def _pruning_blocks():
    # the two-jump model, its y offset by 1e8, constant y (every cost and
    # the bound are 0), integer y with many exact ties, noiseless steps
    # whose levels are not binary fractions (a flat segment's float cost
    # can be an ulp below 0, which a zero slack would prune on), one row
    # whose x repeats (fitted by fit_step), and pure noise
    x, y = _stacked(TestFitRows.TWO_JUMPS, 40, range(12))
    rng = np.random.default_rng(71)
    repeated = x.copy()
    repeated[2, :10] = repeated[2, 10:20]
    ends = np.sort(rng.integers(1, 40, size=(12, 3)), axis=1)
    levels = np.array([0.1, 1.1, 1e8 + 0.1, 1.0 / 3.0])
    steps = levels[(40 * x[:, :, None] >= ends[:, None, :]).sum(axis=2)]
    yield x, y
    yield x, y + 1e8
    yield x, np.full_like(y, 3.0)
    yield x, rng.integers(0, 3, size=x.shape).astype(float)
    yield x, steps
    yield repeated, y
    yield x, rng.normal(size=x.shape)
    yield _stacked(TestFitRows.TWO_JUMPS, 300, range(4))


def _check_bands(monkeypatch, k, check):
    # calls check(layer inputs, budget, first, last) on every band that a
    # k-jump fit of six c10 datasets at n = 300 searches
    search = stepfit._band
    bands = []

    def checking(nxt, cmax, cum_n, cum_s, cum_q, budget):
        first, last = search(nxt, cmax, cum_n, cum_s, cum_q, budget)
        check(nxt, cmax, cum_n, cum_s, cum_q, budget, first, last)
        bands.append(cmax)
        return first, last

    monkeypatch.setattr(stepfit, "_band", checking)
    x, y = _stacked(TestFitRows.TWO_JUMPS, 300, range(6))
    fit_rows(x, y, k)
    assert len(bands) == k - 1


class TestPrunedSweep:
    @pytest.mark.parametrize("cells", [1, 2048, 8192])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_unpruned_reference(self, monkeypatch, cells, k):
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", cells)
        for x, y in _pruning_blocks():
            with monkeypatch.context() as full:
                full.setattr(stepfit, "_cuts", reference_cuts)
                expected = _all_fits(x, y, k)
            assert _all_fits(x, y, k) == expected

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("shrink", [lambda ub: ub * 0.5, lambda ub: ub * 0.0 - 1.0])
    def test_bound_below_optimum_raises(self, monkeypatch, k, shrink):
        bound = stepfit._upper_bound
        monkeypatch.setattr(stepfit, "_upper_bound", lambda *args: shrink(bound(*args)))
        x, y = _stacked(TestFitRows.TWO_JUMPS, 40, range(12))
        with pytest.raises(RuntimeError, match=rf"B=12, m=40, k={k}\)"):
            fit_rows(x, y, k)

    def test_band_keeps_few_cells(self, monkeypatch):
        # the c10 block at n = 300 (27 rows); a layer keeps the cells
        # first[s]..last[s] of its live rows, and with one-row chunks that
        # is all the sweep visits.  Measured: k = 2 keeps 3.3% of the
        # triangle and drops 79 of the 125 rows its first columns keep;
        # k = 3 keeps 34% and 18% of its two layers' triangles
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", 1)
        layer = stepfit._suffix_layer
        kept, triangle, dead = [], [], []

        def counting(nxt, cmax, cum_n, cum_s, cum_q, first, last):
            live = last >= first
            kept.append(int(np.sum((last - first + 1)[live])))
            triangle.append((cmax + 1) * (cmax + 2) // 2)
            dead.append(np.flatnonzero((first <= cmax) & ~live))
            out = layer(nxt, cmax, cum_n, cum_s, cum_q, first, last)
            # a dead row is never swept: its cells are finite, its value not
            assert np.all(np.isinf(out[:, dead[-1]]))
            return out

        monkeypatch.setattr(stepfit, "_suffix_layer", counting)
        x, y = _stacked(TestFitRows.TWO_JUMPS, 300, range(27))
        fit_rows(x, y, 2)
        assert len(kept) == 1 and kept[0] <= 0.10 * triangle[0]
        assert dead[0].size >= 60
        kept.clear(), triangle.clear(), dead.clear()
        fit_rows(x, y, 3)
        assert len(kept) == 2 and all(a <= 0.5 * t for a, t in zip(kept, triangle))
        assert sum(kept) <= 0.30 * sum(triangle)
        assert sum(d.size for d in dead) >= 50

    @pytest.mark.parametrize("k", [2, 3])
    def test_last_column_fails_in_every_dataset(self, monkeypatch, k):
        # what the pruning proof uses: column last[s] + 1 of a live row, and
        # column first[s] of a dead one, has cost + sufmin above the budget
        # in every dataset, recomputed here row by row from `cost_row`
        checked = []

        def check(nxt, cmax, cum_n, cum_s, cum_q, budget, first, last):
            sufmin = np.minimum.accumulate(nxt[:, cmax + 1 : 0 : -1], axis=1)[:, ::-1]
            for s in np.flatnonzero(first <= cmax):
                c = first[s] if last[s] < first[s] else last[s] + 1
                if c <= cmax:
                    for b in range(nxt.shape[0]):
                        cost = cost_row(s, cum_n, cum_s[b], cum_q[b])[c - s]
                        assert not cost + sufmin[b, c] <= budget[b, s]
                        checked.append(s)

        _check_bands(monkeypatch, k, check)
        assert len(checked) > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_columns_before_first_fail_in_every_dataset(self, monkeypatch, k):
        # the first end's certificate: every column c with s <= c < first[s]
        # has nxt[c + 1] above the budget in every dataset, and first is
        # nondecreasing; the deeper layer of k = 3 has head 0, so there
        # every row shares one budget
        checked = []

        def check(nxt, cmax, cum_n, cum_s, cum_q, budget, first, last):
            assert first.shape == (cmax + 1,) and np.all(np.diff(first) >= 0)
            for s in range(cmax + 1):
                assert s <= first[s] <= cmax + 1
                cols = nxt[:, s + 1 : first[s] + 1]
                assert not np.any(cols <= budget[:, s, None])
                checked.append(cols.shape[1])

        _check_bands(monkeypatch, k, check)
        assert sum(checked) > 0


def _block_sums(x, y):
    """`_cuts`' inputs for the rows of (x, y), each through `_prefix_sums`;
    the rows' x are permutations of one multiset, so they share cum_n."""
    sums = [_prefix_sums(Dataset(a, b))[1:] for a, b in zip(x, y)]
    cum_n = sums[0][0]
    assert all(np.array_equal(cn, cum_n) for cn, _, _ in sums)
    return cum_n, np.array([cs for _, cs, _ in sums]), np.array([cq for _, _, cq in sums])


def _rounding_blocks(rows, n):
    # blocks where rounding bites: the c10 model with y offset by 1e6 and
    # 1e8; integer y in {-2, ..., 2}, whose segment costs tie or nearly
    # tie, on distinct x and, as in c03, on x that repeats (every value
    # twice, so blocks hold two observations); pure noise, where the band
    # prunes little
    rng = np.random.default_rng(rows * n)
    x, y = _stacked(TestFitRows.TWO_JUMPS, n, range(rows))
    pairs = np.array([rng.permutation(np.repeat(np.arange(n // 2), 2)) for _ in range(rows)])
    yield x, y + 1e6
    yield x, y + 1e8
    yield x, rng.integers(-2, 3, size=x.shape).astype(float)
    yield pairs.astype(float), rng.integers(-2, 3, size=x.shape).astype(float)
    yield x, rng.normal(size=x.shape)


class TestBandedSweep:
    # every layer searched for its band, whatever its size; one-row chunks,
    # 7-cell chunks (one row of a dataset), and 64-cell chunks of several
    # rows with the lower triangle masked
    @pytest.mark.parametrize("cells", [1, 7, 64])
    @pytest.mark.parametrize("rows, n", [(1, 120), (27, 60), (81, 40)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_cuts_match_unpruned_reference(self, monkeypatch, cells, rows, n, k):
        monkeypatch.setattr(stepfit, "_CHUNK_CELLS", cells)
        for x, y in _rounding_blocks(rows, n):
            cum_n, cum_s, cum_q = _block_sums(x, y)
            cuts = stepfit._cuts(cum_n, cum_s, cum_q, k)
            assert np.array_equal(cuts, reference_cuts(cum_n, cum_s, cum_q, k))


class TestRescaledProcess:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = random_dataset(rng, 30, 12)
            for tau_ref, alpha_ref in (((4.5,), (0.0, 1.0)), ((3.0, 7.5), (0.0, 1.0, -1.0))):
                rp = rescaled_process(d, tau_ref, alpha_ref, 30.0)
                assert [sec.value_at(0.0) for sec in rp.sections] == [0.0] * len(tau_ref)

    def test_section_example(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        rp = rescaled_process(d, (2.0,), (0.0, 1.0), 4.0)
        sec = rp.sections[0]
        assert list(sec.breakpoints) == [-4.0, 0.0, 4.0, 8.0]
        assert list(sec.values) == [2.0, 1.0, 0.0, 1.0, 2.0]
        assert sec.value_at(5.0) == 1.0

    def test_section_matches_loss_difference(self):
        rng = np.random.default_rng(22)
        d = random_dataset(rng, 25, 10)
        tau_ref, alpha_ref, scale = (4.0,), (0.2, 1.3), 25.0
        rp = rescaled_process(d, tau_ref, alpha_ref, scale)
        base = sse(d, StepModel(tau_ref, alpha_ref))
        for u in (-30.0, -2.0, 1.0, 17.5, 60.0):
            shifted = StepModel((tau_ref[0] + u / scale,), alpha_ref)
            assert rp.sections[0].value_at(u) == pytest.approx(
                sse(d, shifted) - base, abs=1e-9
            )

    def test_joint_additivity_k2(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(0, 1, size=60)
        y = rng.normal(size=60)
        d = Dataset(x, y)
        tau_ref = (0.33, 0.66)
        alpha_ref = (0.0, 1.0, -0.5)
        scale = 60.0
        rp = rescaled_process(d, tau_ref, alpha_ref, scale)
        base = sse(d, StepModel(tau_ref, alpha_ref))
        for _ in range(20):
            t = tuple(rng.uniform(max(lo, -9.0), min(hi, 9.0)) for lo, hi in rp.window)
            shifted = StepModel(
                tuple(tau_ref[j] + t[j] / scale for j in range(2)), alpha_ref
            )
            total = sum(sec.value_at(tj) for sec, tj in zip(rp.sections, t))
            assert total == pytest.approx(sse(d, shifted) - base, abs=1e-9)

    def test_collapsed_order(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        with pytest.raises(CollapsedOrderError):
            rescaled_process(d, (3.0, 2.0), (0.0, 1.0, 2.0), 4.0)

    def test_default_half_gap_windows(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0, 1, size=40)
        d = Dataset(x, rng.normal(size=40))
        rp = rescaled_process(d, (0.4, 0.6), (0.0, 1.0, 0.0), 40.0)
        half_gap = 40.0 * 0.2 / 2
        (lo0, hi0), (lo1, hi1) = rp.window
        assert lo0 == -math.inf and hi1 == math.inf
        assert hi0 < half_gap and -half_gap < lo1
        assert hi0 == pytest.approx(half_gap) and lo1 == pytest.approx(-half_gap)
        # the sections keep exactly the shifts inside their windows
        for (lo, hi), tau, sec in zip(rp.window, (0.4, 0.6), rp.sections):
            shifts = 40.0 * (x - tau)
            assert np.array_equal(sec.breakpoints, np.unique(shifts[(shifts > lo) & (shifts <= hi)]))
        (_, hi0), (lo1, hi1), (lo2, _) = rescaled_process(
            d, (0.2, 0.5, 0.6), (0.0, 1.0, 0.0, 1.0), 10.0
        ).window
        assert hi0 == pytest.approx(1.5) and lo1 == pytest.approx(-1.5)
        assert hi1 == pytest.approx(0.5) and lo2 == pytest.approx(-0.5)

    def test_membership_of_fitted_deviation(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        for rep in range(40):
            d = synthesize(model, 150, 5000 + rep)
            fit = fit_step(d, 1)
            point = np.array([[150 * (fit.tau[0] - 0.5)]])
            alpha = np.array([fit.alpha])
            inside = _member(d.x[None], d.y[None], model.true_tau, alpha, 150, point)
            assert inside.tolist() == [True]

    def test_rejects_non_finite_inputs(self):
        d = Dataset([1, 2, 3, 4], [0, 0, 1, 1])
        for tau_ref, alpha_ref, scale in (
            ((2.0,), (0.0, 1.0), math.nan),
            ((2.0,), (0.0, 1.0), math.inf),
            ((math.nan,), (0.0, 1.0), 4.0),
            ((2.0, math.inf), (0.0, 1.0, 0.0), 4.0),
            ((2.0,), (0.0, math.nan), 4.0),
        ):
            with pytest.raises(ValueError, match="finite"):
                rescaled_process(d, tau_ref, alpha_ref, scale)

    def test_builder_sorts_x(self):
        # the builder takes rows in any order, as `fit_rows` leaves them
        rng = np.random.default_rng(25)
        x = rng.uniform(0, 1, size=(3, 50))
        y = rng.normal(size=(3, 50))
        alpha = rng.normal(size=(3, 3))
        perm = rng.permutation(50)
        order = np.argsort(x, axis=1)
        xs, ys = np.take_along_axis(x, order, axis=1), np.take_along_axis(y, order, axis=1)
        ordered = stepfit._sections(xs, ys, (0.3, 0.6), alpha, 50.0)
        shuffled = stepfit._sections(x[:, perm], y[:, perm], (0.3, 0.6), alpha, 50.0)
        for got, want in zip(shuffled, ordered):
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            assert np.all(np.diff(got[1], axis=1) >= 0)
        for r in range(3):
            a = rescaled_process(Dataset(x[r], y[r]), (0.3, 0.6), alpha[r], 50.0)
            b = rescaled_process(Dataset(x[r, perm], y[r, perm]), (0.3, 0.6), alpha[r], 50.0)
            assert a == b

    def test_tied_x_leave_zero_width_cells(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 5.0])
        y = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        d = Dataset(x, y)
        tau_ref, alpha_ref, scale = (2.5,), (0.0, 1.0), 2.0
        alpha = np.array([alpha_ref])
        ((_, edges, values),) = stepfit._sections(x[None], y[None], tau_ref, alpha, scale)
        assert np.count_nonzero(np.diff(edges[0]) == 0) == 4
        sec = rescaled_process(d, tau_ref, alpha_ref, scale).sections[0]
        assert np.array_equal(sec.breakpoints, [-3.0, -1.0, 1.0, 3.0, 5.0])
        base = sse(d, StepModel(tau_ref, alpha_ref))
        for u in (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            shifted = StepModel((tau_ref[0] + u / scale,), alpha_ref)
            assert sec.value_at(u) == sse(d, shifted) - base
        # the stable sort adds the run at shift 1 in data order, and a partial
        # sum inside it dips below every cell of positive width; the kernel
        # masks it, so the row's argmin set is the section's
        width = np.diff(edges[0])
        assert values[0][width == 0].min() < values[0][width > 0].min()
        _, lo, hi = _argmin_cells(edges, values)
        assert [(b.lo[0], b.hi[0]) for b in argmin_set(sec).boxes] == list(zip(lo, hi))


class TestSynthesize:
    def test_deterministic(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISELESS)
        d1 = synthesize(model, 50, 7)
        d2 = synthesize(model, 50, 7)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)

    def test_stream_layout_pinned(self):
        # sha256 of the x and y bytes of fixed draws: a change of the
        # covariate-then-noise layout of one seed shows here.  The
        # two_point(-2, 2, 1/2) noise draws fair bits, 64 to a word
        models = (
            TestFitRows.TWO_JUMPS,
            pure_step_model(
                (0.5,), (0.0, 1.0), XLaw("gaussian", (0.5, 0.3)), NoiseLaw("two_point", (-2.0, 2.0, 0.5))
            ),
        )
        digest = hashlib.sha256()
        for model in models:
            for n in (2, 7, 100, 513):
                for seed in (0, 1, 2**63 + 5, -3):
                    d = synthesize(model, n, seed)
                    digest.update(d.x.tobytes() + d.y.tobytes())
        assert digest.hexdigest() == (
            "e2af43c51a7ffc449d394bb6d47764c14c280ec6364b080734bdae10ca6f9692"
        )

    def test_noiseless_exact_levels(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISELESS)
        d = synthesize(model, 200, 3)
        sides = d.x <= 0.5
        assert np.all(d.y[sides] == 0.0) and np.all(d.y[~sides] == 1.0)

    def test_uniform_mean(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISELESS)
        d = synthesize(model, 10_000, 11)
        se = math.sqrt(1.0 / 12.0 / d.n)
        assert abs(float(np.mean(d.x)) - 0.5) <= 4 * se

    def test_piecewise_poly_regression(self):
        model = RegressionModelSpec(
            segments=((0.0, 1.0), (2.0,)),
            x_law=UNIFORM01,
            noise=NOISELESS,
            true_tau=(0.5,),
            true_alpha=(0.25, 2.0),
        )
        d = synthesize(model, 100, 5)
        left = d.x <= 0.5
        assert np.allclose(d.y[left], d.x[left])
        assert np.all(d.y[~left] == 2.0)

    def test_polynomial_segments_pinned(self):
        # sha256 of draws through degree-2 and degree-3 segments, one row
        # and a block of rows: a change of the float steps that evaluate
        # the regression function shows here
        model = RegressionModelSpec(
            segments=((0.5, -1.25, 2.0), (1.0, 0.75, -3.0, 1.5), (-0.25, 2.5)),
            x_law=XLaw("gaussian", (0.5, 0.4)),
            noise=NoiseLaw("gaussian", (0.0, 0.3)),
            true_tau=(0.3, 0.7),
            true_alpha=(0.0, 1.0, 0.5),
        )
        digest = hashlib.sha256()
        for n in (2, 7, 100, 513):
            for seed in (0, 1, 2**63 + 5, -3):
                d = synthesize(model, n, seed)
                digest.update(d.x.tobytes() + d.y.tobytes())
        x, y = draw_rows(model, np.random.default_rng(4), (3, 50))
        digest.update(x.tobytes() + y.tobytes())
        assert digest.hexdigest() == (
            "2b37325283652aeb94136d26638fff90cab5a0bdd11cda603f8fe49b87195f91"
        )

    def test_model_validation(self):
        with pytest.raises(InvalidSpecError):
            pure_step_model((0.5,), (1.0, 1.0), UNIFORM01, NOISELESS)
        with pytest.raises(InvalidSpecError):
            pure_step_model((2.0,), (0.0, 1.0), UNIFORM01, NOISELESS)
        with pytest.raises(InvalidSpecError):
            NoiseLaw("two_point", (1.0, 1.0, 0.5))


class TestDeriveLimitSpec:
    def test_unit_case(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISELESS)
        spec = derive_limit_spec(model, 1)
        assert spec.rate_right == 1.0 and spec.rate_left == 1.0
        assert spec.jump_right == JumpLaw("point", (1.0,))
        assert spec.jump_left == JumpLaw("point", (1.0,))

    def test_quadratic_scaling(self):
        base = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.1)))
        scaled = pure_step_model((0.5,), (0.0, 3.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.3)))
        s0 = derive_limit_spec(base, 1)
        s1 = derive_limit_spec(scaled, 1)
        assert s1.rate_right == s0.rate_right
        assert s1.jump_right.params[0] == pytest.approx(9.0 * s0.jump_right.params[0], rel=1e-12)
        assert s1.jump_right.params[1] == pytest.approx(9.0 * s0.jump_right.params[1], rel=1e-12)

    def test_gaussian_noise_gives_gaussian_jumps(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NoiseLaw("gaussian", (0.0, 0.25)))
        spec = derive_limit_spec(model, 1)
        assert spec.jump_right == JumpLaw("gaussian", (1.0, 0.5))
        assert spec.jump_left == JumpLaw("gaussian", (1.0, 0.5))

    def test_two_point_noise_gives_two_point_jumps(self):
        noise = NoiseLaw("two_point", (0.5, -0.5, 0.5))
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, noise)
        spec = derive_limit_spec(model, 1)
        assert spec.jump_right == JumpLaw("two_point", (2.0, 0.0, 0.5))

    def test_nonpositive_mean_detected(self):
        model = RegressionModelSpec(
            segments=((0.0,), (1.0,)),
            x_law=UNIFORM01,
            noise=NOISELESS,
            true_tau=(0.5,),
            true_alpha=(1.5, 1.0),
        )
        with pytest.raises(NonpositiveJumpMeanError):
            derive_limit_spec(model, 1)

    def test_jump_index_range(self):
        model = pure_step_model((0.5,), (0.0, 1.0), UNIFORM01, NOISELESS)
        with pytest.raises(ValueError):
            derive_limit_spec(model, 2)


class TestDatasetCsv:
    def test_roundtrip(self):
        d = Dataset([1.5, 2.25, 3.125], [0.1, -0.2, 0.3])
        parsed = dataset_from_csv(dataset_to_csv(d))
        assert np.array_equal(parsed.x, d.x) and np.array_equal(parsed.y, d.y)

    def test_missing_header(self):
        with pytest.raises(DatasetFormatError, match="line 1"):
            dataset_from_csv("1,2\n3,4\n")

    def test_bad_row_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 3"):
            dataset_from_csv("x,y\n1,2\n3\n")

    def test_bad_float_names_line(self):
        with pytest.raises(DatasetFormatError, match="line 2"):
            dataset_from_csv("x,y\nfoo,2\n1,2\n")

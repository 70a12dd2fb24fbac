import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from nccsim import (
    BootstrapError,
    BootstrapSettings,
    CELLS,
    Theta1Method,
    TimeTrendSpec,
    TrendPattern,
    cumvue_from_means,
    method_label,
    model_based_variance,
    adjusted,
)
from nccsim.adjusted import (
    COUNT_BLOCK_VALUES,
    METHODS,
    _resample_means,
    bootstrap_group,
    bootstrap_resamples,
    interim_look,
    point_estimates,
    rejections,
    t_statistic,
    wald_variances,
)
from nccsim.bias import bias_inputs, conditional_bias
from nccsim.datagen import draw_trials, trial_cells
from nccsim.design import MAX_COUNT
from nccsim.theta1 import plug_ins
from conftest import analyse, default_config, make_dataset
from oracle import bootstrap_variances, simulate_trial

ALL_METHODS = tuple(Theta1Method)


def bias_correction(theta1_hat, config):
    """The adjusted methods' correction at a plug-in ``theta1_hat``: the
    conditional bias of ``config`` at arm-1 effect ``theta1_hat``."""
    return conditional_bias(replace(bias_inputs(config), theta1=theta1_hat))


def resample_estimates(data, config, b, seed):
    """Every method's estimate on each accepted resample of one trial, keyed
    by label."""
    cells = tuple(data.cell(*cell) for cell in CELLS)
    resamples = bootstrap_resamples(cells, config, b, np.random.default_rng(seed))
    return dict(zip(METHODS, point_estimates(config, resamples).estimates))


def wald_tests(data, config, bootstrap=None):
    """Estimate, correction, variance, t statistic and rejection flag of
    every method for one trial; ``bootstrap`` maps an adjusted method to its
    bootstrap variance."""
    point = analyse(data, config)
    bootstrap = bootstrap or {}
    boot = np.array([[bootstrap.get(m, np.nan)] for m in ALL_METHODS])
    variances = wald_variances(point.continued, config, boot)
    rows = zip(METHODS, point.estimates, point.corrections, variances)
    out = {}
    for label, estimate, correction, variance in rows:
        out[label] = dict(
            continued=bool(point.continued[0]),
            estimate=float(estimate[0]),
            bias_correction=float(correction[0]),
            variance=float(variance[0]),
            t=float(t_statistic(estimate, variance)[0]),
            rejected=int(rejections(estimate, variance, config.z_alpha)[0]),
        )
    return out


def constant_cells(n=5, z11_positive=True):
    arm1_p1 = [1.0] * n if z11_positive else [0.0] * n
    return {
        (0, 1): [0.0] * n,
        (1, 1): arm1_p1,
        (0, 2): [0.5] * n,
        (1, 2): [1.5] * n,
        (2, 2): [2.0] * n,
    }


class TestConditionalBiasEstimate:
    def test_null_plug_in_default_design(self):
        assert bias_correction(0.0, default_config()) == pytest.approx(
            0.023032943298089032, abs=1e-12
        )

    def test_large_plug_in_kills_the_correction(self):
        assert bias_correction(50.0, default_config()) == pytest.approx(
            0.0, abs=1e-300
        )

    def test_very_negative_plug_in_hits_the_cap(self):
        # The correction has no cap: at gamma ~ 17.3 it is the plain hazard,
        # above the 10 * rho * se1 that the removed cap used to return.
        config = default_config()
        gamma = config.c1 + 2.0 / config.period1_se
        hazard = math.exp(norm.logpdf(gamma) - norm.logsf(gamma))
        correction = bias_correction(-2.0, config)
        assert correction == pytest.approx(config.rho * config.period1_se * hazard, rel=1e-12)
        assert correction > 10.0 * config.rho * config.period1_se

    def test_cap_threshold_location(self):
        # Either side of gamma ~ 7.03, where the removed cap used to switch
        # in, the correction is the plain hazard: no jump to 10 * rho * se1.
        config = default_config()
        se1 = config.period1_se
        for theta1_hat in (-6.9 * se1, -7.2 * se1):
            gamma = config.c1 - theta1_hat / se1
            hazard = math.exp(norm.logpdf(gamma) - norm.logsf(gamma))
            assert bias_correction(theta1_hat, config) == pytest.approx(
                config.rho * se1 * hazard, rel=1e-12
            )
        assert bias_correction(-7.2 * se1, config) < 7.5 * config.rho * se1

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(1, 300)] * 4),
        sigma=st.floats(0.1, 5.0),
        alpha1=st.floats(0.01, 1.0),
        theta1_hats=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=20),
    )
    def test_correction_is_the_plain_hazard(self, sizes, sigma, alpha1, theta1_hats):
        n01, n11, n02, n12 = sizes
        config = default_config(n01=n01, n11=n11, n02=n02, n12=n12, sigma=sigma, alpha1=alpha1)
        theta1_hat = np.sort(theta1_hats)
        correction = bias_correction(theta1_hat, config)
        assert np.all(np.isfinite(correction))
        assert np.all(correction >= 0.0)
        # non-increasing; neighbouring arguments may round either way
        assert np.all(correction[1:] <= correction[:-1] * (1.0 + 1e-12))
        gamma = config.c1 - theta1_hat / config.period1_se
        hazard = np.exp(norm.logpdf(gamma) - norm.logsf(gamma))
        small = gamma <= 40.0
        expected = config.rho * config.period1_se * hazard[small]
        # below gamma ~ -37.7 the hazard is subnormal, which has no relative precision
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(correction[small], expected, rtol=1e-12, atol=tiny)

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(2, 1500)] * 4),
        alpha1=st.floats(0.001, 0.999),
        pooled=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    def test_cumvue_and_correction_stay_finite(self, sizes, alpha1, pooled):
        n01, n11, n02, n12 = sizes
        config = default_config(n01=n01, n11=n11, n02=n02, n12=n12, alpha1=alpha1)
        pooled = np.array(pooled)
        cumvue = cumvue_from_means(pooled, config.i1, config.i2, config.c1)
        assert np.all(np.isfinite(cumvue))
        for theta1_hat in (pooled, cumvue):
            correction = bias_correction(theta1_hat, config)
            assert np.all(np.isfinite(correction))
            assert np.all(correction >= 0.0)

    def test_broadcasts(self):
        values = bias_correction(np.array([0.0, 50.0]), default_config())
        assert values.shape == (2,)
        assert values[0] == pytest.approx(0.023032943298089032)

    def test_never_stop_rule_gives_zero_correction(self):
        assert bias_correction(0.0, default_config(alpha1=1.0)) == 0.0

    @pytest.mark.parametrize("overrides", [
        {},
        {"alpha1": 0.95},
        {"n01": 1500, "n11": 1500},
        {"trend": TimeTrendSpec(TrendPattern.LINEAR, 0.15)},
    ], ids=["default", "alpha1=0.95", "r=10", "lambda=0.15"])
    def test_corrections_are_the_conditional_bias_at_each_plug_in(self, overrides):
        # bit for bit: the batch's correction of a continuing trial is the
        # scalar conditional bias at that trial's plug-in
        config = default_config(**overrides)
        rng = np.random.default_rng(31)
        means = draw_trials(config, rng, 300, (rng, rng)).means
        point = point_estimates(config, means)
        cont = point.continued
        assert 0 < cont.sum() < cont.size
        theta1_hats = plug_ins(*means[cont, :4].T, config)
        for method, row in zip(ALL_METHODS, point.corrections[2:]):
            expected = [bias_correction(t, config) for t in theta1_hats[method].tolist()]
            assert row[cont].tolist() == expected, method
            assert not row[~cont].any()


class TestMae:
    def test_stopped_equals_separate_exactly(self):
        # alpha1 = 0 stops every trial; the arm-1 period-2 cell is masked out
        data = make_dataset(constant_cells())
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5, alpha1=0.0)
        point = analyse(data, config)
        assert not point.continued[0]
        estimates = dict(zip(METHODS, point.estimates[:, 0]))
        for method in ALL_METHODS:
            value = estimates[method_label(method)]
            assert value == estimates["separate"] == 2.0 - 0.5

    def test_hand_value_with_null_plug_in(self):
        # one observation per cell, correction evaluated at theta1_hat = 0
        config = default_config(n01=1, n11=1, n02=1, n12=1, n22=1, alpha1=0.5)
        correction = bias_correction(0.0, config)
        assert correction == pytest.approx(0.2820947917738781, abs=1e-12)
        assert 3.0 - correction == pytest.approx(2.717905208226122, abs=1e-12)

    def test_continued_subtracts_method_correction(self):
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5)
        data = make_dataset(constant_cells())
        point = analyse(data, config)
        assert point.continued[0]
        # by hand: rho = 1/4, so the model-based estimate is
        # 2 - (3/4 * 0.5 + 1/4 * (0 + 1.5 - 1)) = 1.5; pooled, period-1 and
        # period-2 plug-ins are all 1
        estimates = dict(zip(METHODS, point.estimates[:, 0]))
        corrections = dict(zip(METHODS, point.corrections[:, 0]))
        assert estimates["unadjusted"] == pytest.approx(1.5, rel=1e-12)
        theta1_hats = {
            Theta1Method.POOLED: 1.0,
            Theta1Method.PERIOD1: 1.0,
            Theta1Method.PERIOD2: 1.0,
            Theta1Method.CUMVUE: cumvue_from_means(1.0, 2.5, 5.0, 0.0),
        }
        for method, theta1_hat in theta1_hats.items():
            label = method_label(method)
            correction = bias_correction(theta1_hat, config)
            assert corrections[label] == pytest.approx(correction, rel=1e-12)
            assert estimates[label] == pytest.approx(1.5 - correction, rel=1e-12)


class TestResampler:
    @staticmethod
    def _assert_one_shot_mean(n, draws):
        # three columns share each resample's rows
        values = np.random.default_rng(n).normal(size=(n, 3))
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        means = _resample_means(rng, values, draws)
        dtype = np.uint16 if n <= 2**16 else np.int64
        idx = reference.integers(0, n, size=(draws, n), dtype=dtype)
        expected = values[idx].mean(axis=1)
        # counts times values sums in another order than the gathered mean
        np.testing.assert_allclose(means, expected, rtol=1e-12, atol=1e-15)
        # the stream is left where the one-shot draw leaves it
        assert rng.random() == reference.random()

    # n = 2**15 + 1 gives one-row blocks; 63 and 500 draws leave a partial
    # last block at n = 150 and n = 1500
    @pytest.mark.parametrize("n", [1, 7, 150, 1500, COUNT_BLOCK_VALUES + 1])
    @pytest.mark.parametrize("draws", [1, 63, 64, 500])
    def test_blocked_gather_is_the_one_shot_mean(self, n, draws):
        self._assert_one_shot_mean(n, draws)

    # the largest cell that uint16 indices can address, and the smallest
    # that needs int64 ones
    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    @pytest.mark.parametrize("draws", [1, 2, 3, 4])
    def test_index_dtype_switches_above_two_to_the_sixteen(self, n, draws):
        self._assert_one_shot_mean(n, draws)


def group_cells(config, k, seed, shift=None):
    """The five cells of ``k`` trials of ``config``, each ``(n, k)``; column
    ``j`` of the arm-1 period-1 cell is moved by ``shift[j]`` when given."""
    rng = np.random.default_rng(seed)
    draws = draw_trials(config, rng, k, (rng, rng))
    columns = [trial_cells(config, draws, j, rng) for j in range(k)]
    cells = [np.column_stack(cell) for cell in zip(*columns)]
    if shift is not None:
        cells[1] = cells[1] + np.asarray(shift, dtype=float)
    return tuple(cells)


class TestBootstrapGroup:
    @pytest.mark.parametrize("k", [1, 40])
    def test_each_replicate_follows_its_own_law(self, k):
        # With alpha1 = 1 every proposal is accepted, so each of a trial's
        # resample means is the mean of n draws with replacement from its
        # own column of its own cell: centred on the cell's mean with
        # variance s^2 / n (divisor n). Unequal cell sizes and independent
        # trials make a mean drawn from another cell or another trial miss.
        config = default_config(n01=60, n11=80, n02=70, n12=90, n22=50, alpha1=1.0)
        cells = group_cells(config, k, 21)
        b = 2000
        resamples, failed = bootstrap_group(cells, config, b, np.random.default_rng(5))
        assert resamples.shape == (k, b, 5) and not failed.any()
        for c, values in enumerate(cells):
            target = values.var(axis=0) / values.shape[0]
            means = resamples[:, :, c].T
            z_mean = (means.mean(axis=0) - values.mean(axis=0)) / np.sqrt(target / b)
            # the SE of a variance of b (close to normal) means
            z_var = (means.var(axis=0) - target) / (target * math.sqrt(2.0 / (b - 1)))
            assert np.all(np.abs(z_mean) < 4), (CELLS[c], z_mean)
            assert np.all(np.abs(z_var) < 4), (CELLS[c], z_var)

    def test_a_replicate_at_the_rejection_limit_fails_alone(self):
        # the middle trial's period-1 cells are constant with z11 below the
        # cutoff, so every one of its resamples is rejected
        config = default_config(n01=20, n11=20, n02=20, n12=20, n22=20, alpha1=0.9)
        cells = [values.copy() for values in group_cells(config, 3, 8, shift=[1.0, 0.0, 1.0])]
        cells[0][:, 1] = 0.0
        cells[1][:, 1] = -1.0
        resamples, failed = bootstrap_group(tuple(cells), config, 10, np.random.default_rng(2))
        assert failed.tolist() == [False, True, False]
        for j in (0, 2):
            assert np.all(interim_look(config, resamples[j, :, 0], resamples[j, :, 1])[1])
            assert np.all(np.isfinite(resamples[j]))
        with pytest.raises(BootstrapError):
            bootstrap_resamples(tuple(c[:, 1] for c in cells), config, 10,
                                np.random.default_rng(2))

    def test_short_replicates_draw_a_second_batch(self, monkeypatch):
        # trial 0 continues far above the cutoff and fills its b resamples
        # from the first batch; trials 1 and 2 sit at the cutoff, accept
        # about half their proposals and draw more, alone
        config = default_config(n01=30, n11=30, n02=30, n12=30, n22=30)
        se1 = config.period1_se
        cells = [values.copy() for values in group_cells(config, 3, 4)]
        for c in (0, 1):
            cells[c] -= cells[c].mean(axis=0)
        cells[1] += np.array([10.0, 0.0, 0.0]) * se1
        calls = []
        resample_means = adjusted._resample_means

        def spy(rng, values, draws):
            calls.append((values.shape[1], draws))
            return resample_means(rng, values, draws)

        monkeypatch.setattr(adjusted, "_resample_means", spy)
        b = 100
        resamples, failed = bootstrap_group(tuple(cells), config, b, np.random.default_rng(3))
        assert not failed.any()
        period1 = calls[:-3]
        assert period1[:2] == [(3, 125), (3, 125)]
        assert len(period1) >= 4 and all(k == 2 for k, _ in period1[2:4])
        assert calls[-3:] == [(3, b)] * 3
        for j in range(3):
            assert np.all(interim_look(config, resamples[j, :, 0], resamples[j, :, 1])[1])

    def test_mismatched_cell_counts_raise(self):
        config = default_config(n01=20, n11=20, n02=20, n12=20, n22=20)
        cells = list(group_cells(config, 2, 1))
        cells[3] = cells[3][:19]
        with pytest.raises(ValueError, match="cell counts"):
            bootstrap_group(tuple(cells), config, 10, np.random.default_rng(0))


class TestBootstrap:
    def test_degenerate_cells_give_zero_variance(self):
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5)
        data = make_dataset(constant_cells())
        estimates = resample_estimates(data, config, 50, 3)
        variances = bootstrap_variances(data, config, 50, 3)
        assert set(variances) == {method_label(m) for m in ALL_METHODS}
        for method, variance in variances.items():
            # every resample yields the identical estimate; the variance is
            # zero up to the rounding of the resample mean (one ulp squared)
            assert np.unique(estimates[method]).size == 1, method
            assert variance == pytest.approx(0.0, abs=1e-30), method

    def test_unsatisfiable_continuation_raises(self):
        # constant period-1 cells with z11 below the cutoff: every resample
        # is rejected, so the consecutive-rejection guard must fire
        config = default_config(n01=4, n11=4, n02=4, n12=4, n22=4, alpha1=0.2)
        data = make_dataset(constant_cells(n=4, z11_positive=False))
        with pytest.raises(BootstrapError):
            bootstrap_variances(data, config, 2, 1)

    def test_deterministic_in_seed(self):
        config = default_config(n01=20, n11=20, n02=20, n12=20, n22=20)
        data = simulate_trial(config, 2)
        assert analyse(data, config).continued[0]
        a = bootstrap_variances(data, config, 100, 5)["mae_cumvue"]
        b = bootstrap_variances(data, config, 100, 5)["mae_cumvue"]
        c = bootstrap_variances(data, config, 100, 6)["mae_cumvue"]
        assert a == b
        assert a != c

    def test_requested_count_of_estimates(self):
        config = default_config(n01=20, n11=20, n02=20, n12=20, n22=20)
        data = simulate_trial(config, 3)
        assert analyse(data, config).continued[0]
        estimates = resample_estimates(data, config, 37, 0)
        for method in ALL_METHODS:
            assert estimates[method_label(method)].shape == (37,)

    def test_first_batch_assumes_full_acceptance(self, monkeypatch):
        # a continuing trial's resamples are mostly accepted, so the first
        # batch holds ceil(1.25 b) period-1 proposals
        config = default_config()
        data = simulate_trial(config, 1)
        assert analyse(data, config).continued[0]
        draws = []
        resample_means = adjusted._resample_means

        def spy(rng, values, count):
            draws.append(count)
            return resample_means(rng, values, count)

        monkeypatch.setattr(adjusted, "_resample_means", spy)
        estimates = resample_estimates(data, config, 200, 4)
        assert draws[:2] == [250, 250]  # arm 1 and control of period 1
        for method in ALL_METHODS:
            assert estimates[method_label(method)].shape == (200,)

    @pytest.mark.parametrize("gap, raises", [(199, False), (200, True)])
    def test_rejections_carried_across_batches_reach_the_limit(self, monkeypatch, gap, raises):
        # b = 2 allows 199 rejections in a row. The period-1 proposals are a
        # fixed stream: a hit, `gap` misses, then hits. The misses span four
        # batches of 64, so only those carried over from the earlier
        # batches bring the run to the limit.
        config = default_config(n01=4, n11=4, n02=4, n12=4, n22=4)
        cells = tuple(np.full(4, float(k)) for k in range(len(CELLS)))
        stream = np.concatenate([[1.0], np.full(gap, -1.0), np.ones(256)])
        batches = []

        def fake(rng, values, draws):
            if values[0, 0] != cells[1][0]:
                return np.zeros((draws, 1))
            start = sum(batches)
            batches.append(draws)
            return stream[start : start + draws, np.newaxis]  # arm-1 mean; c1 = 0

        monkeypatch.setattr(adjusted, "_resample_means", fake)
        args = (cells, config, 2, np.random.default_rng(0))
        if raises:
            with pytest.raises(BootstrapError):
                bootstrap_resamples(*args)
        else:
            assert bootstrap_resamples(*args).shape == (2, 5)
        assert batches == [64, 64, 64, 64]

    @pytest.mark.parametrize("b", [2, 3, 50, 200, 1000])
    @pytest.mark.parametrize("z11", [1.0, -2.3], ids=["continuing", "stopped"])
    def test_period1_batches_stay_below_the_rejection_limit(self, monkeypatch, b, z11):
        # No run of 100 b rejections fits between two hits of one batch, so
        # only runs that start in an earlier batch are checked. The stopped
        # trial's resamples are accepted about 1 % of the time, below the
        # 0.02 floor of the acceptance rate that sizes a batch.
        n = 20
        config = default_config(n01=n, n11=n, n02=n, n12=n, n22=n)
        rng = np.random.default_rng(5)
        cells = [rng.normal(size=n) for _ in CELLS]
        for cell in cells[:2]:
            cell -= cell.mean()
            cell /= cell.std()
        cells[1] += z11 * config.period1_se
        batches = []
        resample_means = adjusted._resample_means

        def spy(rng, values, draws):
            if any(np.array_equal(values[:, 0], cell) for cell in cells[:2]):
                batches.append(draws)
            return resample_means(rng, values, draws)

        monkeypatch.setattr(adjusted, "_resample_means", spy)
        try:
            bootstrap_resamples(tuple(cells), config, b, np.random.default_rng(1))
        except BootstrapError:
            assert z11 < 0
        assert max(batches) < 100 * b
        if z11 < 0:
            assert sum(batches) / 2 > 50 * b  # over 50 proposals per resample

    def test_doubling_b_keeps_the_target_fixed(self):
        config = default_config(n01=30, n11=30, n02=30, n12=30, n22=30)
        data = simulate_trial(config, 81)
        assert analyse(data, config).continued[0]
        # E[v_b] = target * (b-1)/b with the resample-count divisor, so
        # rescale before comparing the two resample counts
        def cumvue_variances(b, seeds):
            return np.array([
                bootstrap_variances(data, config, b, s)["mae_cumvue"]
                for s in seeds
            ])

        small = cumvue_variances(80, range(150)) * (80 / 79)
        big = cumvue_variances(160, range(5000, 5150)) * (160 / 159)
        diff = small.mean() - big.mean()
        se = math.hypot(small.std(ddof=1) / math.sqrt(small.size), big.std(ddof=1) / math.sqrt(big.size))
        assert abs(diff) < 3 * se
        # doubling the resample count shrinks only the estimator's own noise
        assert big.std(ddof=1) < small.std(ddof=1)

    def test_variance_uses_resample_count_divisor(self):
        config = default_config(n01=10, n11=10, n02=10, n12=10, n22=10)
        data = simulate_trial(config, 85)
        assert analyse(data, config).continued[0]
        estimates = resample_estimates(data, config, 25, 9)
        variance = bootstrap_variances(data, config, 25, 9)["mae_cumvue"]
        e = estimates["mae_cumvue"]
        assert variance == pytest.approx(((e - e.mean()) ** 2).sum() / 25, rel=1e-12)

    def test_cell_counts_must_be_the_designs(self):
        # the look and the correction both use the design's constants
        data = simulate_trial(default_config(n01=20, n11=20, n02=20, n12=20, n22=20), 2)
        config = default_config(n01=20, n11=21, n02=20, n12=20, n22=20)
        with pytest.raises(ValueError, match="cell counts"):
            bootstrap_variances(data, config, 10, 5)

    @pytest.mark.parametrize("pattern", [TrendPattern.STEPWISE, TrendPattern.LINEAR],
                             ids=lambda p: p.value)
    def test_each_resampled_cell_follows_its_own_cell(self, pattern):
        # With alpha1 = 1 every proposal is accepted, so each resample column
        # is the mean of n draws with replacement from its own cell: centred
        # on the cell's mean with variance values.var() / n. Unequal cell
        # sizes and a period-2 shift make a resample drawn from the wrong
        # cell miss both.
        config = default_config(n01=1500, n11=1500, alpha1=1.0,
                                trend=TimeTrendSpec(pattern, 0.5))
        rng = np.random.default_rng(11)
        draws = draw_trials(config, rng, 1, (rng, rng))
        cells = trial_cells(config, draws, 0, rng)
        b = 4000
        resamples = bootstrap_resamples(cells, config, b, np.random.default_rng(7))
        for k, values in enumerate(cells):
            target = values.var() / values.size
            column = resamples[:, k]
            z = (column.mean() - values.mean()) / math.sqrt(target / b)
            assert abs(z) < 4, (CELLS[k], z)
            assert column.var() / target == pytest.approx(1.0, abs=0.12), CELLS[k]

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            BootstrapSettings(b=0)

    @pytest.mark.parametrize("b", [2.5, 3.0, True, "3"])
    def test_non_integer_count_is_rejected(self, b):
        with pytest.raises(ValueError, match="resample count b must be an integer"):
            BootstrapSettings(b=b)
        stored = BootstrapSettings(b=np.int64(3)).b
        assert stored == 3 and type(stored) is int

    def test_oversized_count_is_rejected(self):
        # the bound is what the bootstrap's (6, b) float64 block can address
        largest = MAX_COUNT // 48
        assert BootstrapSettings(b=largest).b == largest
        for b in (largest + 1, 2**62, MAX_COUNT + 1):
            with pytest.raises(ValueError, match=f"must be at most {largest}, got {b}"):
                BootstrapSettings(b=b)
        assert BootstrapSettings(b=2, seed=99999999999999999999).seed == 99999999999999999999

    def test_one_resample_is_rejected(self):
        with pytest.raises(ValueError, match="must be >= 2, got 1"):
            BootstrapSettings(b=1)
        assert BootstrapSettings(b=2).b == 2


class TestWaldTest:
    def test_stopped_branch_is_standard_z_test(self):
        # constant responses pin the estimate at 0.32 with sigma=1 known;
        # alpha1 = 0 stops the trial
        cells = {(0, 1): [0.0] * 150, (1, 1): [0.0] * 150,
                 (0, 2): [0.0] * 150, (2, 2): [0.32] * 150}
        data = make_dataset(cells)
        config = default_config(alpha1=0.0)
        record = wald_tests(data, config)["mae_cumvue"]
        assert record["estimate"] == pytest.approx(0.32, rel=1e-12)
        assert record["bias_correction"] == 0.0
        assert record["t"] == pytest.approx(2.7712812921102037, rel=1e-10)
        assert record["rejected"] == 1
        assert record["continued"] is False

    def test_zero_estimate_is_never_rejected(self):
        cells = {(0, 1): [0.0] * 10, (1, 1): [0.0] * 10,
                 (0, 2): [0.2] * 10, (2, 2): [0.2] * 10}
        data = make_dataset(cells)
        config = default_config(n01=10, n11=10, n02=10, n12=10, n22=10, alpha1=0.0)
        record = wald_tests(data, config)["mae_pooled"]
        assert record["t"] == 0.0
        assert record["rejected"] == 0

    def test_continued_without_settings_gives_point_estimate_only(self):
        config = default_config(n01=15, n11=15, n02=15, n12=15, n22=15)
        data = simulate_trial(config, 4)
        record = wald_tests(data, config)["mae_cumvue"]
        assert record["continued"] is True
        assert math.isnan(record["variance"])
        assert math.isnan(record["t"])
        assert record["rejected"] == -1  # no test

    def test_continued_uses_bootstrap_variance(self):
        config = default_config(n01=25, n11=25, n02=25, n12=25, n22=25)
        data = simulate_trial(config, 3)
        assert analyse(data, config).continued[0]
        expected_var = bootstrap_variances(data, config, 60, 4)["mae_period2"]
        tests = wald_tests(data, config, {Theta1Method.PERIOD2: expected_var})
        assert method_label(Theta1Method.PERIOD2) == "mae_period2"
        record = tests["mae_period2"]
        assert record["variance"] == pytest.approx(expected_var, rel=1e-12)
        assert record["t"] == pytest.approx(record["estimate"] / math.sqrt(expected_var), rel=1e-12)
        assert record["rejected"] == (record["t"] > 1.9599639845400542)


class TestUnadjustedAndSeparateRecords:
    def test_separate_record(self):
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5)
        data = make_dataset(constant_cells())
        record = wald_tests(data, config)["separate"]
        assert record["estimate"] == pytest.approx(1.5)
        assert record["variance"] == pytest.approx(2 / 5)
        assert record["bias_correction"] == 0.0

    def test_unadjusted_record_branches(self):
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5)
        data = make_dataset(constant_cells())
        continued = wald_tests(data, config)["unadjusted"]
        assert continued["continued"] is True
        # model-based by hand: 2 - (3/4 * 0.5 + 1/4 * (0 + 1.5 - 1))
        assert continued["estimate"] == pytest.approx(1.5, rel=1e-12)
        assert continued["variance"] == pytest.approx(
            model_based_variance(5, 5, 5, 5, 5, 1.0), rel=1e-12
        )
        stopped = wald_tests(data, default_config(n01=5, n11=5, n02=5, n12=5, n22=5, alpha1=0.0))
        assert stopped["unadjusted"]["continued"] is False
        assert stopped["unadjusted"]["estimate"] == stopped["separate"]["estimate"] == 1.5
        assert stopped["unadjusted"]["variance"] == pytest.approx(2 / 5)

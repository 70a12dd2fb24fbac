import math

import numpy as np
import pytest

from nccsim import (
    BootstrapError,
    BootstrapSettings,
    METHODS,
    STATISTICS,
    ReplicateArrays,
    Scenario,
    Statistic,
    TrendPattern,
    collect_replicates,
    run_replicate,
    run_scenario,
    scenario_grid,
    summarize,
)
from conftest import default_config


def small_scenario(replicates=200, bootstrap=None, **config_overrides) -> Scenario:
    config = default_config(**config_overrides)
    return Scenario(
        scenario_id="test:small",
        config=config,
        replicates=replicates,
        bootstrap=bootstrap,
    )


class TestScenarioGrid:
    def test_counts(self):
        grid = scenario_grid(replicates=10)
        assert len(grid) == 56
        null = [s for s in grid if s.hypothesis == "null"]
        alt = [s for s in grid if s.hypothesis == "alternative"]
        assert len(null) == len(alt) == 28

    def test_family_sizes(self):
        grid = scenario_grid(replicates=10)
        null_ids = [s.scenario_id for s in grid if s.hypothesis == "null"]
        assert sum(1 for i in null_ids if i.startswith("null:alpha1=")) == 9
        assert sum(1 for i in null_ids if i.startswith("null:r=")) == 7
        assert sum(1 for i in null_ids if i.startswith("null:a=")) == 7
        assert sum(1 for i in null_ids if i.startswith("null:lambda=")) == 5

    def test_period_ratio_family_fixes_period2_cells(self):
        grid = {s.scenario_id: s for s in scenario_grid(replicates=10)}
        r2 = grid["null:r=2"].config
        assert (r2.n01, r2.n11, r2.n02, r2.n12, r2.n22) == (300, 300, 150, 150, 150)
        small = grid["null:r=1/15"].config
        assert (small.n01, small.n11) == (10, 10)
        assert small.n02 == small.n12 == small.n22 == 150

    def test_allocation_family_fixes_control_cells(self):
        grid = {s.scenario_id: s for s in scenario_grid(replicates=10)}
        a10 = grid["null:a=10"].config
        assert (a10.n01, a10.n11, a10.n02, a10.n12, a10.n22) == (150, 1500, 150, 1500, 150)

    def test_resulting_sizes_match_published_row(self):
        grid = scenario_grid(replicates=10)
        sizes = sorted({s.config.n01 for s in grid if s.scenario_id.startswith("null:r=")})
        assert sizes == [10, 50, 150, 300, 600, 1050, 1500]

    def test_lambda_family_uses_linear_trend(self):
        grid = {s.scenario_id: s for s in scenario_grid(replicates=10)}
        lam = grid["alternative:lambda=0.15"].config
        assert lam.trend.pattern is TrendPattern.LINEAR
        assert lam.trend.lam == 0.15
        assert grid["alternative:lambda=0.15"].config.theta2 == 0.32

    def test_defaults_on_non_varied_parameters(self):
        grid = {s.scenario_id: s for s in scenario_grid(replicates=10)}
        cfg = grid["null:alpha1=0.1"].config
        assert (cfg.n01, cfg.n11, cfg.n02, cfg.n12, cfg.n22) == (150,) * 5
        assert grid["null:r=2"].config.alpha1 == 0.5


class TestRunReplicate:
    def test_deterministic(self):
        scenario = small_scenario(bootstrap=BootstrapSettings(b=40, seed=0))
        a = run_replicate(scenario, 11, 3)
        b = run_replicate(scenario, 11, 3)
        assert a.z11 == b.z11
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.variances, b.variances, equal_nan=True)

    def test_stopped_replicate_collapses_to_separate(self):
        scenario = small_scenario()
        for rep in range(40):
            result = run_replicate(scenario, 17, rep)
            if result.continued[0]:
                continue
            reference = result.estimates[METHODS.index("separate"), 0]
            for estimate, correction in zip(result.estimates[:, 0], result.corrections[:, 0]):
                assert estimate == reference
                assert correction == 0.0
            break
        else:
            pytest.fail("no stopped replicate found")

    def test_bootstrap_shared_across_methods_but_tests_differ(self):
        scenario = small_scenario(bootstrap=BootstrapSettings(b=50, seed=0))
        for rep in range(40):
            result = run_replicate(scenario, 23, rep)
            if result.continued[0]:
                by_label = dict(zip(METHODS, result.variances[:, 0]))
                variances = {m: by_label[f"mae_{m}"] for m in
                             ("pooled", "period1", "period2", "cumvue")}
                assert all(v > 0 for v in variances.values())
                assert len({round(v, 15) for v in variances.values()}) > 1
                break
        else:
            pytest.fail("no continuing replicate found")


class TestRunScenario:
    def test_continuation_rate_and_statistic_layout(self):
        oc = run_scenario(small_scenario(replicates=400, alpha1=0.3), 31)
        assert set(oc.stats) == set(METHODS)
        for method in METHODS:
            assert set(oc.stats[method]) == set(STATISTICS)
        p = oc.stats["unadjusted"]["continuation_frequency"].value
        assert abs(p - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 400)
        assert oc.valid
        assert oc.n_failed == 0

    def test_rejection_rates_absent_without_bootstrap_for_mae(self):
        oc = run_scenario(small_scenario(replicates=120), 37)
        assert oc.stats["mae_cumvue"]["marginal_rejection_rate"].value is None
        assert oc.stats["unadjusted"]["marginal_rejection_rate"].value is not None
        assert oc.stats["separate"]["conditional_rejection_rate"].value is not None

    def test_always_stop_scenario(self):
        oc = run_scenario(small_scenario(replicates=150, alpha1=0.0), 41)
        assert oc.n_continuing == 0
        assert oc.stats["unadjusted"]["continuation_frequency"].value == 0.0
        assert oc.stats["unadjusted"]["conditional_bias"].value is None
        assert oc.stats["mae_cumvue"]["conditional_rmse"].value is None

    def test_always_continue_scenario(self):
        oc = run_scenario(small_scenario(replicates=150, alpha1=1.0), 43)
        assert oc.n_continuing == 150
        assert oc.stats["separate"]["continuation_frequency"].value == 1.0
        marginal = oc.stats["unadjusted"]["marginal_bias"].value
        conditional = oc.stats["unadjusted"]["conditional_bias"].value
        assert marginal == pytest.approx(conditional, rel=1e-12)

    def test_worker_count_does_not_change_results(self):
        scenario = small_scenario(replicates=120, bootstrap=BootstrapSettings(b=25, seed=0))
        serial = run_scenario(scenario, 47, workers=1)
        parallel = run_scenario(scenario, 47, workers=2)
        for method in METHODS:
            for name in STATISTICS:
                a = serial.stats[method][name]
                b = parallel.stats[method][name]
                assert a.value == b.value, (method, name)
                assert a.mc_se == b.mc_se, (method, name)

    def test_collect_replicates_orders_by_index(self):
        scenario = small_scenario(replicates=90)
        arrays = collect_replicates(scenario, 53, workers=2)
        for rep in (0, 41, 89):
            result = run_replicate(scenario, 53, rep)
            row = METHODS.index("unadjusted")
            assert arrays.estimates[row, rep] == result.estimates[row, 0]
            assert arrays.continued[rep] == result.continued[0]

    def test_failed_replicates_are_counted_and_bounded(self, monkeypatch):
        import nccsim.harness as harness_module

        real = harness_module.bootstrap_resamples

        def flaky(*args, **kwargs):
            flaky.calls += 1
            if flaky.calls % 10 == 0:
                raise BootstrapError("injected failure")
            return real(*args, **kwargs)

        flaky.calls = 0
        monkeypatch.setattr(harness_module, "bootstrap_resamples", flaky)
        oc = run_scenario(small_scenario(replicates=100, bootstrap=BootstrapSettings(b=5)), 59)
        # one bootstrap per continuing replicate; failed ones are not counted as continuing
        assert flaky.calls == oc.n_continuing + oc.n_failed
        assert oc.n_failed == flaky.calls // 10
        assert oc.n_failed >= 2
        assert not oc.valid  # more than the 1% failure budget

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario("x", default_config(), 0, None)
        with pytest.raises(ValueError, match="sigma"):
            Scenario("x", default_config(sigma=-1.0), 10, None)

    @pytest.mark.parametrize("theta2, hypothesis", [
        (0.0, "null"), (-0.0, "null"), (0.32, "alternative"), (-1e-300, "alternative"),
    ])
    def test_hypothesis_follows_theta2(self, theta2, hypothesis):
        assert small_scenario(theta2=theta2).hypothesis == hypothesis


class TestSummarize:
    """``summarize`` against statistics worked out by hand on a record of
    R = 100 replicates at theta2 = 0. The first ``n_failed`` replicates
    continued and then failed, with an estimate of 100 that would show in
    any statistic that counted them. Of the rest, 40 continue: 20 estimate
    0.3 and are rejected, 20 estimate -0.1 and are not. The others stop,
    estimate 0.1, and the first 13 of them are rejected."""

    @staticmethod
    def _record(n_failed):
        est = np.array([100.0] * n_failed + [0.3] * 20 + [-0.1] * 20 + [0.1] * (60 - n_failed))
        rejected = np.array(
            [1] * n_failed + [1] * 20 + [0] * 20 + [1] * 13 + [0] * (47 - n_failed), dtype=np.int8
        )
        continued = np.arange(100) < n_failed + 40

        def per_method(values):
            return np.tile(values, (len(METHODS), 1))

        return ReplicateArrays(
            z11=np.zeros(100), continued=continued, failed=np.arange(100) < n_failed,
            estimates=per_method(est), corrections=per_method(np.zeros(100)),
            variances=per_method(np.ones(100)), rejected=per_method(rejected),
        )

    def test_one_failure_in_a_hundred(self):
        oc = summarize(small_scenario(replicates=100), self._record(1))
        assert (oc.n_replicates, oc.n_continuing, oc.n_failed, oc.valid) == (100, 40, 1, True)
        # 99 replicates count; their estimates have mean 0.1 and squared
        # deviations 0.04 on the 40 continuing ones, 0 on the 59 stopped ones
        sq_sd = math.sqrt(20 * 79 * 0.08**2 / (99 * 98))  # sd of 20 x 0.09, 79 x 0.01
        cond_sq_sd = math.sqrt(20 * 20 * 0.08**2 / (40 * 39))  # 20 x 0.09, 20 x 0.01
        expected = {
            "marginal_bias": (0.1, math.sqrt(40 * 0.04 / 98 / 99)),
            "conditional_bias": (0.1, math.sqrt(40 * 0.04 / 39 / 40)),
            "marginal_rmse": (
                math.sqrt(2.59 / 99), sq_sd / math.sqrt(99) / (2 * math.sqrt(2.59 / 99))
            ),
            "conditional_rmse": (
                math.sqrt(0.05), cond_sq_sd / math.sqrt(40) / (2 * math.sqrt(0.05))
            ),
            "marginal_rejection_rate": (1 / 3, math.sqrt(1 / 3 * 2 / 3 / 99)),
            "conditional_rejection_rate": (0.5, math.sqrt(0.25 / 40)),
            "continuation_frequency": (40 / 99, math.sqrt(40 / 99 * 59 / 99 / 99)),
        }
        for name, (value, mc_se) in expected.items():
            stat = oc.stats["unadjusted"][name]
            assert stat.value == pytest.approx(value, rel=1e-12), name
            assert stat.mc_se == pytest.approx(mc_se, rel=1e-12), name

    def test_two_failures_in_a_hundred_invalidate_the_run(self):
        oc = summarize(small_scenario(replicates=100), self._record(2))
        assert (oc.n_replicates, oc.n_continuing, oc.n_failed, oc.valid) == (100, 40, 2, False)
        frequency = oc.stats["unadjusted"]["continuation_frequency"]
        assert frequency.value == pytest.approx(40 / 98, rel=1e-12)
        assert frequency.mc_se == pytest.approx(math.sqrt(40 / 98 * 58 / 98 / 98), rel=1e-12)


def _method_record(continued, failed, estimates, rejected) -> ReplicateArrays:
    return ReplicateArrays(
        z11=np.zeros(continued.size), continued=continued, failed=failed,
        estimates=estimates, corrections=np.zeros_like(estimates),
        variances=np.ones_like(estimates), rejected=rejected,
    )


# Each statistic's formula on one method's 1-D row, as (value, MC SE).


def _mean_formula(values):
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _rmse_formula(errors):
    sq = np.square(errors)
    rmse = math.sqrt(float(sq.mean()))
    return rmse, float(sq.std(ddof=1) / math.sqrt(errors.size) / (2.0 * rmse))


def _rate_formula(flags):
    p = float(flags.mean())
    return p, math.sqrt(p * (1.0 - p) / flags.size)


class TestSummarizeByMethod:
    """``summarize`` on records whose six method rows differ, so a statistic
    that read another method's row, or pooled the rows, would show. The
    scenario has theta2 = 0.32."""

    THETA2 = 0.32

    def _summarize(self, record):
        scenario = small_scenario(replicates=record.continued.size, theta2=self.THETA2)
        return summarize(scenario, record)

    def test_every_statistic_equals_its_formula_on_the_methods_own_row(self):
        # Compared with ==: the block reduction must sum each row as the
        # 1-D formula does, to the last bit. Rows taken with ``[:, mask]``
        # are strided, and numpy sums them naively instead of pairwise.
        rng = np.random.default_rng(20250808)
        n = 400
        failed = rng.random(n) < 0.05
        continued = rng.random(n) < 0.4
        scales = np.arange(1, len(METHODS) + 1)[:, np.newaxis]
        estimates = self.THETA2 + scales * rng.normal(0.05, 0.3, size=(len(METHODS), n))
        rejected = (rng.random((len(METHODS), n)) < scales / 10).astype(np.int8)
        oc = self._summarize(_method_record(continued, failed, estimates, rejected))
        ok = ~failed
        cont = continued & ok
        assert (oc.n_continuing, oc.n_failed) == (int(cont.sum()), int(failed.sum()))
        for method, est, rej in zip(METHODS, estimates, rejected):
            expected = {
                "marginal_bias": _mean_formula(est[ok] - self.THETA2),
                "conditional_bias": _mean_formula(est[cont] - self.THETA2),
                "marginal_rmse": _rmse_formula(est[ok] - self.THETA2),
                "conditional_rmse": _rmse_formula(est[cont] - self.THETA2),
                "marginal_rejection_rate": _rate_formula(rej[ok]),
                "conditional_rejection_rate": _rate_formula(rej[cont]),
                "continuation_frequency": _rate_formula(continued[ok].astype(np.int8)),
            }
            got = {name: (s.value, s.mc_se) for name, s in oc.stats[method].items()}
            assert got == expected, method

    def test_without_bootstrap_only_the_adjusted_methods_lack_a_rejection_rate(self):
        # B = 0: a continuing trial has no test under the mean-adjusted
        # methods (-1), while unadjusted and separate always have one.
        n = 60
        continued = np.arange(n) % 3 == 0
        rejected = np.zeros((len(METHODS), n), dtype=np.int8)
        rejected[0, :10] = 1  # unadjusted: 4 of the 20 continuing rejected
        rejected[1, :30] = 1  # separate: 10 of the 20 continuing rejected
        rejected[2:, continued] = -1
        estimates = self.THETA2 + np.arange(len(METHODS))[:, np.newaxis] * np.ones(n)
        oc = self._summarize(_method_record(continued, np.zeros(n, bool), estimates, rejected))
        rates = {
            method: (by_name["marginal_rejection_rate"].value,
                     by_name["conditional_rejection_rate"].value)
            for method, by_name in oc.stats.items()
        }
        assert rates == {
            "unadjusted": (10 / 60, 4 / 20),
            "separate": (30 / 60, 10 / 20),
            **{method: (None, None) for method in METHODS[2:]},
        }
        for i, method in enumerate(METHODS):
            assert oc.stats[method]["marginal_bias"].value == pytest.approx(i), method

    def test_no_continuing_replicate_leaves_every_conditional_statistic_empty(self):
        # the only continuing replicates failed
        n = 50
        continued = np.arange(n) < 2
        estimates = self.THETA2 + np.arange(len(METHODS) * n).reshape(len(METHODS), n) / n
        rejected = np.ones((len(METHODS), n), dtype=np.int8)
        oc = self._summarize(_method_record(continued, continued.copy(), estimates, rejected))
        assert (oc.n_continuing, oc.n_failed) == (0, 2)
        for method, row in zip(METHODS, estimates):
            by_name = oc.stats[method]
            for name in STATISTICS:
                if name.startswith("conditional_"):
                    assert by_name[name] == Statistic(None, None), (method, name)
                else:
                    assert by_name[name].mc_se is not None, (method, name)
            assert by_name["marginal_bias"].value == _mean_formula(row[2:] - self.THETA2)[0]
        assert oc.stats["separate"]["continuation_frequency"] == Statistic(0.0, 0.0)

    def test_one_continuing_replicate_gives_values_without_a_standard_error(self):
        n = 40
        continued = np.zeros(n, bool)
        continued[[5, 17]] = True
        failed = np.zeros(n, bool)
        failed[5] = True  # leaves replicate 17
        errors = np.linspace(-0.5, 0.5, len(METHODS))
        estimates = self.THETA2 + errors[:, np.newaxis] * np.ones(n)
        rejected = np.zeros((len(METHODS), n), dtype=np.int8)
        rejected[::2, 17] = 1
        oc = self._summarize(_method_record(continued, failed, estimates, rejected))
        assert oc.n_continuing == 1
        for i, method in enumerate(METHODS):
            error = estimates[i, 17] - self.THETA2
            by_name = oc.stats[method]
            assert by_name["conditional_bias"] == Statistic(error, None), method
            assert by_name["conditional_rmse"] == Statistic(math.sqrt(error * error), None), method
            assert by_name["conditional_rejection_rate"] == Statistic(float(i % 2 == 0), 0.0)

    def test_all_zero_errors_give_a_zero_rmse_without_a_standard_error(self):
        # only the separate row estimates theta2 exactly
        rng = np.random.default_rng(7)
        n = 30
        continued = np.arange(n) < 12
        estimates = self.THETA2 + rng.normal(0.0, 0.2, size=(len(METHODS), n))
        separate = METHODS.index("separate")
        estimates[separate] = self.THETA2
        rejected = np.zeros((len(METHODS), n), dtype=np.int8)
        oc = self._summarize(_method_record(continued, np.zeros(n, bool), estimates, rejected))
        for method in METHODS:
            for name in ("marginal_rmse", "conditional_rmse"):
                stat = oc.stats[method][name]
                if method == "separate":
                    assert stat == Statistic(0.0, None), name
                else:
                    assert stat.value > 0.0 and stat.mc_se > 0.0, (method, name)
        assert oc.stats["separate"]["marginal_bias"] == Statistic(0.0, 0.0)

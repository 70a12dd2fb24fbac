import numpy as np
import pytest

from nccsim import (
    model_based_from_means,
    model_based_variance,
    ncc_weight,
    separate_variance,
)
from nccsim.adjusted import METHODS, point_estimates
from nccsim.datagen import draw_trials
from conftest import analyse, cell_counts, cell_means, default_config, make_dataset
from oracle import ols_fit

HAND_CELLS = {(0, 1): [0.0], (1, 1): [1.0], (0, 2): [2.0], (1, 2): [3.0], (2, 2): [5.0]}


def model_based(data):
    """The closed-form model-based estimate of a trial with all five cells."""
    return float(model_based_from_means(*cell_means(data), *cell_counts(data)[:4]))


def separate(data):
    estimates = analyse(data, default_config()).estimates
    return float(estimates[METHODS.index("separate"), 0])


def simulated_means(config, reps):
    """``(reps, 5)`` cell means of ``reps`` trials of ``config`` (no linear trend)."""
    return draw_trials(config, np.random.default_rng(2024), reps).means


class TestInterim:
    def test_zero_statistic_ties_continue(self):
        data = make_dataset({(0, 1): [1.0, 1.0], (1, 1): [1.0, 1.0]})
        config = default_config(n01=2, n11=2, alpha1=0.5)
        result = analyse(data, config)
        assert result.z11[0] == 0.0
        assert config.c1 == 0.0
        assert result.continued[0]  # rule stops only when z11 < c1

    def test_hand_value(self):
        data = make_dataset({(0, 1): [0.0] * 2, (1, 1): [0.2] * 2})
        config = default_config(n01=2, n11=2, alpha1=0.5, sigma=1.0)
        # the design's period-1 cell sizes are the data's: n = 2 per cell
        result = analyse(data, config)
        assert result.z11[0] == pytest.approx(0.2 / 1.0, rel=1e-12)

    def test_default_design_value(self):
        y01 = np.zeros(150)
        y11 = np.full(150, 0.2)
        data = make_dataset({(0, 1): y01, (1, 1): y11})
        result = analyse(data, default_config())
        assert result.z11[0] == pytest.approx(1.7320508075688772, rel=1e-12)

    def test_degenerate_bounds_follow_the_stopping_rule(self):
        data = make_dataset({(0, 1): [0.0, 0.0], (1, 1): [5.0, 5.0]})
        always_stop = analyse(data, default_config(n01=2, n11=2, alpha1=0.0))
        assert not always_stop.continued[0]
        never_stop_data = make_dataset({(0, 1): [5.0, 5.0], (1, 1): [0.0, 0.0]})
        never_stop = analyse(never_stop_data, default_config(n01=2, n11=2, alpha1=1.0))
        assert never_stop.continued[0]

    def test_continuation_probability_matches_bound(self):
        config = default_config(alpha1=0.3)
        reps = 20_000
        means = simulated_means(config, reps)
        p = point_estimates(config, means).continued.mean()
        assert abs(p - 0.3) < 3 * np.sqrt(0.3 * 0.7 / reps)


class TestSeparate:
    def test_subtraction(self):
        data = make_dataset({(0, 2): [2.0], (2, 2): [5.0]})
        assert separate(data) == pytest.approx(3.0)

    def test_null_case(self):
        data = make_dataset({(0, 2): [1.5, 2.5], (2, 2): [2.0, 2.0]})
        assert separate(data) == pytest.approx(0.0)

    def test_monte_carlo_mean_near_zero(self):
        config = default_config()
        reps = 20_000
        means = simulated_means(config, reps)
        values = point_estimates(config, means).estimates[METHODS.index("separate")]
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean()) < 3 * se


class TestModelBased:
    def test_hand_evaluation(self):
        data = make_dataset(HAND_CELLS)
        assert ncc_weight(1, 1, 1, 1) == pytest.approx(0.25)
        assert model_based(data) == pytest.approx(3.0, rel=1e-12)

    def test_agrees_with_separate_when_routes_match(self):
        # non-concurrent route m01 + m12 - m11 equals the concurrent mean
        data = make_dataset({(0, 1): [1.0], (1, 1): [2.0], (0, 2): [3.0], (1, 2): [4.0], (2, 2): [9.0]})
        assert model_based(data) == pytest.approx(separate(data), rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        cells = {cell: rng.normal(size=6) for cell in HAND_CELLS}
        base = model_based(make_dataset(cells))
        shifted = model_based(
            make_dataset({cell: values + 17.3 for cell, values in cells.items()})
        )
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_stepwise_trend_leaves_estimate_unbiased(self):
        from nccsim import TimeTrendSpec, TrendPattern

        config = default_config(
            n01=40, n11=40, n02=40, n12=40, n22=40,
            trend=TimeTrendSpec(TrendPattern.STEPWISE, 0.15),
        )
        reps = 20_000
        values = model_based_from_means(*simulated_means(config, reps).T, 40, 40, 40, 40)
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean()) < 3 * se


class TestVariances:
    def test_separate_variance(self):
        assert separate_variance(150, 150, 1.0) == pytest.approx(2 / 150)

    def test_model_based_variance_closed_form(self):
        # (1-rho)^2/n02 + rho^2 (1/n01 + 1/n11 + 1/n12) == (1-rho)/n02
        for sizes in ((150, 150, 150, 150, 150), (10, 20, 30, 40, 50)):
            n01, n11, n02, n12, n22 = sizes
            rho = ncc_weight(n01, n02, n11, n12)
            direct = (1 - rho) ** 2 / n02 + rho**2 * (1 / n01 + 1 / n11 + 1 / n12)
            assert model_based_variance(*sizes, 1.0) == pytest.approx(
                1 / n22 + direct, rel=1e-12
            )


class TestOlsFit:
    def test_hand_solution(self):
        fit = ols_fit(make_dataset(HAND_CELLS))
        assert fit.eta0 == pytest.approx(0.0, abs=1e-12)
        assert fit.theta1_coef == pytest.approx(1.0, rel=1e-12)
        assert fit.theta2_coef == pytest.approx(3.0, rel=1e-12)
        assert fit.tau == pytest.approx(2.0, rel=1e-12)

    def test_constant_response(self):
        cells = {cell: [7.0, 7.0, 7.0] for cell in HAND_CELLS}
        fit = ols_fit(make_dataset(cells))
        assert fit.eta0 == pytest.approx(7.0, rel=1e-12)
        for coef in (fit.theta1_coef, fit.theta2_coef, fit.tau):
            assert coef == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_on_random_trials(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            sizes = rng.integers(1, 12, size=5)
            cells = {
                cell: rng.normal(scale=3.0, size=n)
                for cell, n in zip(HAND_CELLS, sizes)
            }
            data = make_dataset(cells)
            assert ols_fit(data).theta2_coef == pytest.approx(model_based(data), abs=1e-9)

    def test_works_without_arm1_period2(self):
        data = make_dataset({k: v for k, v in HAND_CELLS.items() if k != (1, 2)})
        fit = ols_fit(data)
        assert fit.theta2_coef == pytest.approx(separate(data), rel=1e-12)

    def test_rank_deficient_design(self):
        data = make_dataset({(0, 1): [1.0, 2.0], (1, 1): [0.5, 1.5]})
        with pytest.raises(ValueError, match="rank"):
            ols_fit(data)

import math

import numpy as np
import pytest

from nccsim import (
    BiasInputs,
    normal,
    bias_inputs,
    conditional_bias,
    marginal_bias,
    stop_probability,
)
from nccsim.adjusted import interim_look, model_based_from_means
from nccsim.datagen import draw_trials
from conftest import default_config


def default_inputs(**overrides) -> BiasInputs:
    return bias_inputs(default_config(**overrides))


class TestStopProbability:
    def test_null_effect_reduces_to_one_minus_bound(self):
        assert stop_probability(default_inputs(alpha1=0.3)) == pytest.approx(0.7, rel=1e-12)

    def test_positive_effect(self):
        value = stop_probability(default_inputs(theta1=0.2))
        assert value == pytest.approx(0.0416322583317752, abs=1e-9)

    def test_large_effect_limit(self):
        assert stop_probability(default_inputs(theta1=50.0)) == pytest.approx(0.0, abs=1e-300)


class TestMarginalBias:
    def test_default_design_value(self):
        assert marginal_bias(default_inputs()) == pytest.approx(
            0.011516471649044516, abs=1e-12
        )

    def test_positive_arm1_effect(self):
        assert marginal_bias(default_inputs(theta1=0.2)) == pytest.approx(
            0.0025696721633961546, abs=1e-12
        )

    def test_vanishes_at_degenerate_bounds(self):
        for alpha1 in (1e-9, 1 - 1e-9):
            assert marginal_bias(default_inputs(alpha1=alpha1)) == pytest.approx(0.0, abs=1e-9)

    def test_maximized_at_even_bound(self):
        grid = [i / 100 for i in range(1, 100)]
        values = {a: marginal_bias(default_inputs(alpha1=a)) for a in grid}
        assert max(values, key=values.get) == 0.5

    def test_no_dependence_on_arm2_effect(self):
        assert marginal_bias(default_inputs(theta2=0.32)) == marginal_bias(default_inputs())


class TestConditionalBias:
    def test_default_design_value(self):
        assert conditional_bias(default_inputs()) == pytest.approx(
            0.023032943298089032, abs=1e-12
        )

    def test_never_below_marginal(self):
        for alpha1 in (0.05, 0.3, 0.5, 0.9):
            for theta1 in (-0.3, 0.0, 0.4):
                inputs = default_inputs(alpha1=alpha1, theta1=theta1)
                assert conditional_bias(inputs) >= marginal_bias(inputs)

    def test_decreasing_in_bound_under_null(self):
        grid = [i / 20 for i in range(1, 20)]
        values = [conditional_bias(default_inputs(alpha1=a)) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_null_closed_form(self):
        # under a null arm-1 effect: rho * se1 * pdf(c1) / alpha1
        inputs = default_inputs(alpha1=0.3)
        from nccsim import normal

        expected = inputs.rho * inputs.se1 * normal.pdf(inputs.c1) / 0.3
        assert conditional_bias(inputs) == pytest.approx(expected, rel=1e-12)

    def test_deep_tail_is_finite_and_tends_to_the_linear_limit(self):
        # where arm 1 almost never continues, hazard(gamma) ~ gamma + 1 / gamma,
        # so the bias tends to rho * se1 * gamma = rho * (c1 * se1 - theta1)
        for theta1 in (-10.0, -1e3, -1e300):
            inputs = default_inputs(alpha1=0.3, theta1=theta1)
            value = conditional_bias(inputs)
            assert math.isfinite(value)
            limit = inputs.rho * (inputs.c1 * inputs.se1 - theta1)
            assert abs(value / limit - 1.0) <= 1.0 / (inputs.gamma * inputs.gamma) + 1e-15

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gamma_gives_the_linear_limit(self):
        # se1 = 0.0365 (panel B's r = 10) makes theta1 / se1 overflow at
        # theta1 = -1e307; the bias is then the limit, not inf, and the
        # entries whose gamma is finite keep the plain formula bit for bit
        theta1 = np.array([-1e307, -1e300, -1.0, 0.0, 1e307])
        inputs = BiasInputs(rho=0.45, se1=0.0365, c1=0.0, theta1=theta1)
        values = conditional_bias(inputs)
        assert np.all(np.isfinite(values))
        limit = inputs.rho * (inputs.c1 * inputs.se1 - theta1[0])
        assert values[0] == limit
        assert conditional_bias(BiasInputs(0.45, 0.0365, 0.0, -1e307)) == limit
        plain = inputs.rho * inputs.se1 * normal.hazard(inputs.c1 - theta1[1:4] / inputs.se1)
        assert values[1:4].tobytes() == plain.tobytes()
        # an overflow to +inf leaves gamma = -inf, where arm 1 always continues
        assert values[4] == 0.0
        # a never-stop rule (c1 = -inf) has no bias at any theta1
        assert conditional_bias(BiasInputs(0.45, 0.0365, -math.inf, -1e307)) == 0.0

    def test_total_expectation_reconstruction(self):
        # stop-branch bias is 0, so P(stop)*0 + P(continue)*conditional = marginal
        for theta1 in (-0.2, 0.0, 0.15):
            inputs = default_inputs(theta1=theta1, alpha1=0.35)
            p_stop = stop_probability(inputs)
            recon = (1.0 - p_stop) * conditional_bias(inputs)
            assert recon == pytest.approx(marginal_bias(inputs), rel=1e-12)


class TestBiasInputs:
    def test_gamma_definition(self):
        inputs = default_inputs(theta1=0.2)
        assert inputs.gamma == pytest.approx(-0.2 / inputs.se1, rel=1e-12)

    def test_fields_from_config(self):
        inputs = default_inputs()
        assert inputs.rho == pytest.approx(0.25)
        assert inputs.se1 == pytest.approx(0.11547005383792516)
        assert inputs.c1 == 0.0


class TestAgainstSimulation:
    """The closed forms against trials drawn as cell means, away from a null
    arm-1 effect."""

    TRIALS = 200_000

    @pytest.mark.parametrize("theta1", [-0.2, 0.2])
    @pytest.mark.parametrize("overrides", [
        {}, {"alpha1": 0.1}, {"n01": 1500, "n11": 1500},
    ], ids=["default", "alpha1=0.1", "r=10"])
    def test_continuation_and_conditional_error(self, overrides, theta1):
        config = default_config(theta1=theta1, **overrides)
        means = draw_trials(config, np.random.default_rng(2025), self.TRIALS).means
        continued = interim_look(config, means[:, 0], means[:, 1])[1]
        inputs = bias_inputs(config)
        p = 1.0 - stop_probability(inputs)
        assert abs(continued.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / self.TRIALS)
        if continued.sum() < 100:
            # r = 10 at theta1 = -0.2: arm 1 continues with probability 2e-8
            assert p < 1e-6
            return
        errors = model_based_from_means(*means[continued].T, *config.cells[:4]) - config.theta2
        se = errors.std(ddof=1) / math.sqrt(errors.size)
        assert abs(errors.mean() - conditional_bias(inputs)) <= 4.0 * se

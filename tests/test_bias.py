import pytest

from nccsim import (
    BiasInputs,
    bias_inputs,
    conditional_bias,
    marginal_bias,
    stop_probability,
)
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

    def test_degenerate_continuation_raises(self):
        with pytest.raises(ValueError, match="continuation probability"):
            conditional_bias(default_inputs(theta1=-10.0))

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

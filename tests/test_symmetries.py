"""The engine's exact symmetries: changes to a design whose effect on every
replicate is known, trial by trial, when the streams are the same (the same
scenario id and master seed). Each relation holds trial by trial, with no
Monte Carlo tolerance: bit for bit where the arithmetic is exact, else
within 1e-12, and flags equal away from the critical value."""

from dataclasses import fields

import numpy as np
import pytest

from nccsim import (
    BootstrapSettings,
    DesignConfig,
    ReplicateArrays,
    Scenario,
    TimeTrendSpec,
    TrendPattern,
    collect_replicates,
)
from nccsim.adjusted import rejections, t_statistic

REPLICATES = 600
SEED = 20250808
TOLERANCE = 1e-12


def _run(config: DesignConfig, b: int):
    bootstrap = BootstrapSettings(b, 7) if b else None
    return collect_replicates(Scenario("symmetry", config, REPLICATES, bootstrap), SEED)


@pytest.mark.parametrize("b", [0, 50])
@pytest.mark.parametrize("pattern", list(TrendPattern), ids=lambda p: p.value)
def test_doubling_the_scale_doubles_estimates_and_quadruples_variances(pattern, b):
    # Doubling sigma, theta1, theta2 and lambda doubles every response drawn
    # from the same stream, exactly: a factor of 2 only moves the exponent.
    # So the look and the flags do not change, the estimates and corrections
    # double, and the variances grow by 4, bit for bit.
    base = DesignConfig(theta1=0.1, theta2=0.2, trend=TimeTrendSpec(pattern, 0.15))
    scaled = DesignConfig(theta1=0.2, theta2=0.4, sigma=2.0, trend=TimeTrendSpec(pattern, 0.3))
    one, two = _run(base, b), _run(scaled, b)
    assert one.continued.any() and not one.continued.all()
    for name in ("z11", "continued", "failed", "rejected"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
    assert (2.0 * one.estimates).tobytes() == two.estimates.tobytes()
    assert (2.0 * one.corrections).tobytes() == two.corrections.tobytes()
    assert (4.0 * one.variances).tobytes() == two.variances.tobytes()


def _assert_same_look(one, two):
    for name in ("z11", "continued", "failed"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name


def _assert_close(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=TOLERANCE, atol=TOLERANCE, err_msg=name)


def _assert_flags_agree(rejected, estimates, variances):
    """``rejected`` are the flags of ``estimates`` and ``variances``, except
    where the t statistic lies within 1e-9 of the critical value."""
    z_alpha = DesignConfig().z_alpha
    expected = rejections(estimates, variances, z_alpha)
    away = ~(np.abs(t_statistic(estimates, variances) - z_alpha) < 1e-9)
    assert np.array_equal(rejected[away], expected[away])


@pytest.mark.parametrize("b", [0, 50])
def test_a_period2_step_cancels_from_every_estimate(b):
    # A stepwise trend adds lambda to the three period-2 cell means. The
    # look reads period 1 only, so it and the bootstrap's acceptance are
    # bit-equal; every estimate and plug-in of the balanced default design
    # is a contrast in which the step cancels, up to rounding.
    flat = _run(DesignConfig(), b)
    step = _run(DesignConfig(trend=TimeTrendSpec(TrendPattern.STEPWISE, 0.3)), b)
    assert flat.continued.any() and not flat.continued.all()
    _assert_same_look(flat, step)
    for name in ("estimates", "corrections", "variances"):
        _assert_close(getattr(step, name), getattr(flat, name), name)
    _assert_flags_agree(step.rejected, flat.estimates, flat.variances)


@pytest.mark.parametrize("b", [0, 50])
def test_a_linear_trend_of_slope_0_is_no_trend(b):
    # the linear draw adds a zero drift to every cell and slot, and its
    # recruitment orders come from streams of their own
    flat = _run(DesignConfig(), b)
    linear = _run(DesignConfig(trend=TimeTrendSpec(TrendPattern.LINEAR, 0.0)), b)
    for f in fields(ReplicateArrays):
        assert getattr(flat, f.name).tobytes() == getattr(linear, f.name).tobytes(), f.name


@pytest.mark.parametrize("b", [0, 50])
def test_a_larger_arm1_effect_only_adds_continuing_replicates(b):
    # theta1 shifts every arm-1 cell mean drawn from the same stream, and
    # z11 is non-decreasing in it, so raising theta1 stops no replicate
    # that continued
    low = _run(DesignConfig(theta1=-0.1), b)
    high = _run(DesignConfig(theta1=0.1), b)
    assert (high.z11 >= low.z11).all()
    assert 0 < low.continued.sum() < high.continued.sum()
    assert not (low.continued & ~high.continued).any()


@pytest.mark.parametrize("b", [0, 50])
def test_an_arm2_effect_shifts_every_estimate_by_itself(b):
    # theta2 moves only the arm-2 cell mean: the look and the plug-ins are
    # bit-equal, every estimate moves by theta2 and every variance stays,
    # up to rounding, so the null record predicts every flag
    theta2 = 0.32
    null = _run(DesignConfig(), b)
    shifted = _run(DesignConfig(theta2=theta2), b)
    _assert_same_look(null, shifted)
    assert null.corrections.tobytes() == shifted.corrections.tobytes()
    _assert_close(shifted.estimates, null.estimates + theta2, "estimates")
    _assert_close(shifted.variances, null.variances, "variances")
    _assert_flags_agree(shifted.rejected, null.estimates + theta2, null.variances)

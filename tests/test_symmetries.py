"""The engine's exact symmetries: changes to a design whose effect on every
replicate is known, trial by trial, when the streams are the same (the same
scenario id and master seed). Each relation holds bit for bit, with no Monte
Carlo tolerance."""

import numpy as np
import pytest

from nccsim import (
    BootstrapSettings,
    DesignConfig,
    Scenario,
    TimeTrendSpec,
    TrendPattern,
    collect_replicates,
)

REPLICATES = 600
SEED = 20250808


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

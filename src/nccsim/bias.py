"""Closed-form bias of the unadjusted model-based estimator.

The interim look couples the non-concurrent borrowing weight to the arm-1
result: continuing selects trials whose period-1 arm-1 mean is high, which
inflates the trend correction and hence the arm-2 estimate. The resulting
marginal bias is ``rho * se1 * pdf(gamma)``; conditional on stopping the
estimator is unbiased, so the conditional-on-continuing bias is the marginal
bias divided by the continuation probability. None of this depends on the
time trend strength or on the arm-2 effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import normal
from .design import DesignConfig


@dataclass(frozen=True)
class BiasInputs:
    """Ingredients of the bias formulas for one design point."""

    rho: float
    se1: float
    c1: float
    theta1: float

    @property
    def gamma(self) -> float:
        """Standardized stopping threshold ``c1 - theta1 / se1``."""
        return self.c1 - self.theta1 / self.se1


def bias_inputs(config: DesignConfig) -> BiasInputs:
    return BiasInputs(
        rho=config.rho,
        se1=config.period1_se,
        c1=config.c1,
        theta1=config.theta1,
    )


def stop_probability(inputs: BiasInputs) -> float:
    """Probability that arm 1 stops at the interim; ``1 - alpha1`` under
    a null arm-1 effect."""
    return float(normal.cdf(inputs.gamma))


def marginal_bias(inputs: BiasInputs) -> float:
    """Expected bias of the unadjusted estimator over all interim outcomes."""
    return inputs.rho * inputs.se1 * float(normal.pdf(inputs.gamma))


def conditional_bias(inputs: BiasInputs) -> float:
    """Bias conditional on arm 1 continuing past the interim."""
    continue_prob = float(normal.sf(inputs.gamma))
    if continue_prob < 1e-12:
        raise ValueError("continuation probability ~ 0; conditional bias undefined")
    return marginal_bias(inputs) / continue_prob


"""Closed-form bias of the unadjusted model-based estimator.

The interim look couples the non-concurrent borrowing weight to the arm-1
result: continuing selects trials whose period-1 arm-1 mean is high, which
inflates the trend correction and hence the arm-2 estimate. The resulting
marginal bias is ``rho * se1 * pdf(gamma)``; conditional on stopping the
estimator is unbiased, so the conditional-on-continuing bias is the marginal
bias divided by the continuation probability, ``rho * se1 * hazard(gamma)``.
None of this depends on the time trend strength or on the arm-2 effect. The
adjusted estimator subtracts :func:`conditional_bias` evaluated at a plug-in
estimate of ``theta1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normal
from .design import DesignConfig


@dataclass(frozen=True)
class BiasInputs:
    """Ingredients of the bias formulas for one design point. ``theta1``
    may be an array of arm-1 effects (or plug-in estimates of it)."""

    rho: float
    se1: float
    c1: float
    theta1: float | np.ndarray

    @property
    def gamma(self):
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


def conditional_bias(inputs: BiasInputs):
    """Bias conditional on arm 1 continuing past the interim,
    ``rho * se1 * hazard(gamma)``: finite and non-increasing in ``theta1``,
    also where arm 1 almost never continues. Where ``theta1 / se1``
    overflows to ``-inf``, ``hazard`` is not evaluated at the infinite
    ``gamma`` this would give: the bias is its limit
    ``rho * (c1 * se1 - theta1)``, since ``hazard(g) = g + O(1 / g)``. A
    Python float for a scalar ``theta1``; broadcasts over an array."""
    theta1 = np.asarray(inputs.theta1, dtype=float)
    with np.errstate(over="ignore"):
        shift = theta1 / inputs.se1
    overflow = (shift == -np.inf) & np.isfinite(theta1)
    gamma = inputs.c1 - np.where(overflow, 0.0, shift)
    out = inputs.rho * inputs.se1 * normal.hazard(gamma)
    if math.isfinite(inputs.c1):
        out = np.where(overflow, inputs.rho * (inputs.c1 * inputs.se1 - theta1), out)
    return float(out) if np.ndim(out) == 0 else out

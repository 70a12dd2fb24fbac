"""The unadjusted arm-2 effect estimators and their known-sigma variances.

Two routes from the cell means: the separate (concurrent-only) difference
``m22 - m02``, and the closed-form model-based estimate that borrows
trend-corrected non-concurrent controls. A least-squares fit of the
period-adjusted dummy regression on the patient rows agrees with the closed
form on full-rank data and is kept as its independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import TrialDataset
from .design import ncc_weight


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients of the dummy regression
    ``E[y] = eta0 + theta1*I(arm=1) + theta2*I(arm=2) + tau*I(period=2)``."""

    eta0: float
    theta1_coef: float
    theta2_coef: float
    tau: float


def model_based_from_means(m01, m11, m02, m12, m22, n01, n11, n02, n12):
    """Closed-form model-based estimate from the five cell means.

    The period-2 control response is estimated as a weighted average of the
    concurrent control mean and the non-concurrent control mean shifted by
    the period effect observed in arm 1. Broadcasts over arrays of means.
    """
    rho = ncc_weight(n01, n02, n11, n12)
    control_p2 = (1.0 - rho) * m02 + rho * (m01 + m12 - m11)
    return m22 - control_p2


def separate_variance(n02: int, n22: int, sigma: float) -> float:
    """Known-sigma variance of the separate estimate."""
    return sigma * sigma * (1.0 / n02 + 1.0 / n22)


def model_based_variance(n01, n11, n02, n12, n22, sigma: float) -> float:
    """Known-sigma variance of the model-based estimate.

    The weighted control estimate has variance ``(1 - rho) * sigma^2 / n02``
    because the weight is the precision-optimal combination of the two
    control routes.
    """
    rho = ncc_weight(n01, n02, n11, n12)
    return sigma * sigma * (1.0 / n22 + (1.0 - rho) / n02)


def ols_fit(data: TrialDataset) -> RegressionFit:
    """Least-squares fit of the dummy regression on the patient rows.

    Solved via SVD (numpy ``lstsq``); raises on a rank-deficient design.
    Serves as an independent check of :func:`model_based_from_means`.
    """
    x = np.column_stack(
        [
            np.ones(data.y.size),
            (data.arm == 1).astype(float),
            (data.arm == 2).astype(float),
            (data.period == 2).astype(float),
        ]
    )
    coef, _, rank, _ = np.linalg.lstsq(x, data.y, rcond=None)
    if rank < 4:
        raise ValueError(f"rank-deficient design: rank {rank} < 4")
    return RegressionFit(
        eta0=float(coef[0]),
        theta1_coef=float(coef[1]),
        theta2_coef=float(coef[2]),
        tau=float(coef[3]),
    )

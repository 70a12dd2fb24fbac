"""Plug-in estimators of the arm-1 effect used inside the bias correction.

Four choices: the pooled mean difference over both periods, the period-1 or
period-2 differences, and a Rao-Blackwellized estimator that is unbiased
conditional on arm 1 continuing past the interim. The period-2 and
Rao-Blackwellized (``CUMVUE``) variants are conditionally unbiased; the
pooled and period-1 variants retain the selection bias of the interim look.
"""

from __future__ import annotations

import math
from enum import Enum

from . import normal
from .design import DesignConfig


class Theta1Method(Enum):
    POOLED = "pooled"
    PERIOD1 = "period1"
    PERIOD2 = "period2"
    CUMVUE = "cumvue"


def pooled_from_means(m01, m11, m02, m12, n01, n11, n02, n12):
    """Patient-weighted mean difference over both periods (broadcasts)."""
    arm1 = (n11 * m11 + n12 * m12) / (n11 + n12)
    control = (n01 * m01 + n02 * m02) / (n01 + n02)
    return arm1 - control


def umvue_from_means(pooled_mle, i1: float, i2: float, c1: float):
    """Rao-Blackwellized period-1 estimator given the final sufficient statistic.

    ``i1`` and ``i2`` are the interim and final information of the arm-1
    effect and ``c1`` the interim cutoff. Equals the pooled difference plus a
    truncation lift evaluated at the standardized interim cutoff; written in
    standardized form so the tail ratio stays finite for extreme inputs.
    Broadcasts over arrays.
    """
    if not i2 > i1:
        raise ValueError("final information must exceed interim information")
    z12 = pooled_mle * math.sqrt(i2)
    u = (c1 * math.sqrt(i2) - z12 * math.sqrt(i1)) / math.sqrt(i2 - i1)
    return pooled_mle + math.sqrt((i2 - i1) / (i1 * i2)) * normal.hazard(u)


def cumvue_from_means(pooled_mle, i1: float, i2: float, c1: float):
    """Conditionally unbiased estimator built from :func:`umvue_from_means`.

    Inverts the information decomposition of the pooled difference so the
    period-1 contribution is replaced by its conditional expectation.
    """
    u = umvue_from_means(pooled_mle, i1, i2, c1)
    return (i2 * pooled_mle - i1 * u) / (i2 - i1)


def plug_ins(m01, m11, m02, m12, config: DesignConfig):
    """Every arm-1 plug-in estimate, keyed by method, from the arm-1 and
    control cell means of both periods at the design's cell sizes, with the
    design's information levels and interim cutoff. Broadcasts over arrays
    of means.
    """
    pooled = pooled_from_means(m01, m11, m02, m12, *config.cells[:4])
    return {
        Theta1Method.POOLED: pooled,
        Theta1Method.PERIOD1: m11 - m01,
        Theta1Method.PERIOD2: m12 - m02,
        Theta1Method.CUMVUE: cumvue_from_means(pooled, config.i1, config.i2, config.c1),
    }

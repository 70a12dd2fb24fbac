"""Plug-in estimators of the arm-1 effect used inside the bias correction.

Four choices: the pooled mean difference over both periods, the period-1 or
period-2 differences, and a Rao-Blackwellized estimator that is unbiased
conditional on arm 1 continuing past the interim. The period-2 and
Rao-Blackwellized (``CUMVUE``) variants are conditionally unbiased; the
pooled and period-1 variants retain the selection bias of the interim look.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import normal
from .design import DesignConfig


class Theta1Method(Enum):
    POOLED = "pooled"
    PERIOD1 = "period1"
    PERIOD2 = "period2"
    CUMVUE = "cumvue"


@dataclass(frozen=True)
class InformationLevels:
    """Fisher information of the arm-1 effect at the interim and final looks."""

    i1: float
    i2: float


def information_levels(config: DesignConfig) -> InformationLevels:
    """Interim and final information for the configured cell sizes."""
    n01, n11, n02, n12, sigma = config.n01, config.n11, config.n02, config.n12, config.sigma
    i1 = 1.0 / (sigma * sigma * (1.0 / n11 + 1.0 / n01))
    i2 = 1.0 / (sigma * sigma * (1.0 / (n11 + n12) + 1.0 / (n01 + n02)))
    return InformationLevels(i1=i1, i2=i2)


def pooled_from_means(m01, m11, m02, m12, n01, n11, n02, n12):
    """Patient-weighted mean difference over both periods (broadcasts)."""
    arm1 = (n11 * m11 + n12 * m12) / (n11 + n12)
    control = (n01 * m01 + n02 * m02) / (n01 + n02)
    return arm1 - control


def umvue_from_means(pooled_mle, info: InformationLevels, c1):
    """Rao-Blackwellized period-1 estimator given the final sufficient statistic.

    Equals the pooled difference plus a truncation lift evaluated at the
    standardized interim cutoff; written in standardized form so the tail
    ratio stays finite for extreme inputs. Broadcasts over arrays.
    """
    i1, i2 = info.i1, info.i2
    if not i2 > i1:
        raise ValueError("final information must exceed interim information")
    z12 = pooled_mle * math.sqrt(i2)
    u = (c1 * math.sqrt(i2) - z12 * math.sqrt(i1)) / math.sqrt(i2 - i1)
    return pooled_mle + math.sqrt((i2 - i1) / (i1 * i2)) * normal.hazard(u)


def cumvue_from_means(pooled_mle, info: InformationLevels, c1):
    """Conditionally unbiased estimator built from :func:`umvue_from_means`.

    Inverts the information decomposition of the pooled difference so the
    period-1 contribution is replaced by its conditional expectation.
    """
    i1, i2 = info.i1, info.i2
    if not i2 > i1:
        raise ValueError("final information must exceed interim information")
    u = umvue_from_means(pooled_mle, info, c1)
    return (i2 * pooled_mle - i1 * u) / (i2 - i1)


def plug_ins(m01, m11, m02, m12, config: DesignConfig, info: InformationLevels, c1):
    """Every arm-1 plug-in estimate, keyed by method, from the arm-1 and
    control cell means of both periods at the design's cell sizes.

    ``info`` and ``c1`` are the design's information levels and interim
    cutoff. Broadcasts over arrays of means.
    """
    pooled = pooled_from_means(
        m01, m11, m02, m12, config.n01, config.n11, config.n02, config.n12
    )
    return {
        Theta1Method.POOLED: pooled,
        Theta1Method.PERIOD1: m11 - m01,
        Theta1Method.PERIOD2: m12 - m02,
        Theta1Method.CUMVUE: cumvue_from_means(pooled, info, c1),
    }

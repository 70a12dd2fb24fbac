"""Trial design parameters and the derived quantities every analysis consumes.

The design is a two-period platform layout: arm 1 and the control recruit in
period 1; arm 2 joins at the start of period 2, when arm 1 faces a one-sided
futility interim test. Cell sample sizes are indexed as ``n<arm><period>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import normal


def as_integer(value) -> int | None:
    """``value`` as a Python ``int`` when it is a Python or numpy integer
    other than ``bool``; ``None`` for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return None
    return int(value)


#: The largest cell size, the longest numpy array axis: a larger integer
#: cannot be drawn at all (below it, memory bounds what can).
MAX_COUNT = np.iinfo(np.intp).max


class TrendPattern(Enum):
    NONE = "none"
    LINEAR = "linear"
    STEPWISE = "stepwise"


@dataclass(frozen=True)
class TimeTrendSpec:
    """Additive drift in the mean response, identical for all arms."""

    pattern: TrendPattern = TrendPattern.NONE
    lam: float = 0.0  # trend strength; contributes nothing when pattern is NONE


@dataclass(frozen=True)
class DesignConfig:
    """All design parameters for one trial. The defaults are the default
    design, from which ``table1``, the analytic panels, plans and ``single`` start.

    ``alpha1`` is the futility bound on the interim one-sided p-value
    (0 = always stop, 1 = never stop), ``alpha`` the one-sided significance
    level of the final test, and ``sigma`` the known response standard
    deviation. Construction (``dataclasses.replace`` included) checks every
    field: a positive ``alpha1`` or ``alpha`` must leave ``1 - value`` below
    1 (be above about 2**-54); each of the five cells holds at least one
    patient, since a futility stop only decides whether the arm-1 period-2
    cell is analysed, and at most :data:`MAX_COUNT`. A numpy integer size is
    stored as an int.

    The members below are what the design alone determines; every analysis
    reads them here. ``c1`` and ``z_alpha`` are computed once per instance.
    """

    n01: int = 150
    n11: int = 150
    n02: int = 150
    n12: int = 150
    n22: int = 150
    alpha1: float = 0.5
    alpha: float = 0.025
    sigma: float = 1.0
    theta1: float = 0.0
    theta2: float = 0.0
    trend: TimeTrendSpec = field(default_factory=TimeTrendSpec)

    def __post_init__(self):
        for name in ("n01", "n11", "n02", "n12", "n22"):
            value = as_integer(getattr(self, name))
            if value is None or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
            if value > MAX_COUNT:
                raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.alpha1 <= 1.0:
            raise ValueError(f"alpha1 out of range [0, 1]: {self.alpha1!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha!r}")
        # the cutoffs are quantiles at 1 - alpha1 and 1 - alpha, which must be below 1
        for name in ("alpha1", "alpha"):
            value = getattr(self, name)
            if value > 0.0 and 1.0 - value == 1.0:
                raise ValueError(f"{name} is too small: 1 - {name} rounds to 1, got {value!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        for name in ("theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.trend.pattern, TrendPattern):
            raise ValueError(f"unknown trend pattern: {self.trend.pattern!r}")
        if not math.isfinite(self.trend.lam):
            raise ValueError("trend lambda must be finite")

    @property
    def cells(self) -> tuple[int, int, int, int, int]:
        """The five cell sizes in ``datagen.CELLS`` order."""
        return (self.n01, self.n11, self.n02, self.n12, self.n22)

    @cached_property
    def c1(self) -> float:
        """Futility cutoff of the interim z statistic."""
        return futility_cutoff(self.alpha1)

    @cached_property
    def z_alpha(self) -> float:
        """Critical value of the final one-sided test."""
        return float(normal.quantile(1.0 - self.alpha))

    @property
    def i1(self) -> float:
        """Fisher information of the arm-1 effect at the interim look."""
        n01, n11, sigma = self.n01, self.n11, self.sigma
        return 1.0 / (sigma * sigma * (1.0 / n11 + 1.0 / n01))

    @property
    def i2(self) -> float:
        """Fisher information of the arm-1 effect at the final look."""
        n01, n11, n02, n12, sigma = self.n01, self.n11, self.n02, self.n12, self.sigma
        return 1.0 / (sigma * sigma * (1.0 / (n11 + n12) + 1.0 / (n01 + n02)))

    @property
    def period1_se(self) -> float:
        """Standard error of the period-1 arm-1 vs control mean difference."""
        return period1_se(self.n01, self.n11, self.sigma)

    @property
    def rho(self) -> float:
        """Weight of the non-concurrent controls in the model-based estimate."""
        return ncc_weight(self.n01, self.n02, self.n11, self.n12)

    @property
    def ratio_r(self) -> float:
        """Period-1 to period-2 sample size ratio (reporting only)."""
        return self.n01 / self.n02

    @property
    def ratio_a(self) -> float:
        """Arm-1 to control allocation ratio (reporting only)."""
        return self.n11 / self.n01

    @property
    def total_planned(self) -> int:
        """Maximum sample size, assuming arm 1 continues to period 2."""
        return sum(self.cells)


def futility_cutoff(alpha1: float) -> float:
    """Interim cutoff: the standard normal quantile at ``1 - alpha1``. The
    degenerate bounds 0 (always stop) and 1 (never stop) map to +/-inf."""
    if alpha1 <= 0.0:
        return math.inf
    if alpha1 >= 1.0:
        return -math.inf
    return float(normal.quantile(1.0 - alpha1))


def period1_se(n01, n11, sigma) -> float:
    """Standard error of the period-1 arm-1 vs control mean difference.
    Non-integer sizes are accepted, as for ``ncc_weight``."""
    return sigma * math.sqrt(1.0 / n11 + 1.0 / n01)


def ncc_weight(n01, n02, n11, n12) -> float:
    """Weight of the non-concurrent control mean in the control estimate.

    Equals ``(1/n02) / (1/n01 + 1/n02 + 1/n11 + 1/n12)``. Every size must be
    at least 1; non-integer sizes are accepted so analytic curves can be
    evaluated on a continuous grid.
    """
    for name, value in (("n01", n01), ("n02", n02), ("n11", n11), ("n12", n12)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    inv_total = 1.0 / n01 + 1.0 / n02 + 1.0 / n11 + 1.0 / n12
    return (1.0 / n02) / inv_total

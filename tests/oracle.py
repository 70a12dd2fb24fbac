"""The patient-level oracle: a trial as patient rows, its own generator, a
least-squares fit of the dummy regression and a per-trial bootstrap entry.

The engine draws, analyses and bootstraps trials only as their five cells.
These are the independent checks of that path, and the tests seeded on
them: :func:`simulate_trial` draws the same law as ``draw_trials`` followed
by ``expand_trial``, from its own stream; :func:`ols_fit` checks the closed
form of the model-based estimate; :func:`bootstrap_variances` is
``bootstrap_group`` followed by ``resample_variances`` on one trial, and
raises where the engine would mark the trial failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nccsim import CELLS, DesignConfig
from nccsim.adjusted import ADJUSTED_METHODS, bootstrap_group, resample_variances
from nccsim.datagen import _patient_layout, _recruitment_arms


@dataclass(frozen=True)
class TrialDataset:
    """One trial's patient rows, in recruitment order, indexed by cell.

    Arrays are aligned; row ``j`` is the ``j + 1``-th patient recruited.
    A hand-built dataset may leave a cell empty. Instances are immutable and
    safe to share across workers.
    """

    arm: np.ndarray
    period: np.ndarray
    y: np.ndarray
    _cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.arm.size == self.period.size == self.y.size):
            raise ValueError("arm, period and y must have equal length")
        cells = {}
        for k, s in CELLS:
            values = self.y[(self.arm == k) & (self.period == s)]
            values.flags.writeable = False
            cells[(k, s)] = values
        for arr in (self.arm, self.period, self.y):
            arr.flags.writeable = False
        object.__setattr__(self, "_cells", cells)

    def cell(self, arm: int, period: int) -> np.ndarray:
        return self._cells[(arm, period)]


def simulate_trial(config: DesignConfig, seed) -> TrialDataset:
    """Draw one full trial at patient level. Identical ``(config, seed)``
    give identical data.

    Responses are ``Normal(theta_k + f(j), sigma^2)`` with the control
    response in period 1 fixed at 0; all estimands are differences, so the
    baseline level is immaterial. The law is that of ``draw_trials``
    followed by ``expand_trial``; the simulation harness uses those.
    """
    rng = np.random.default_rng(seed)
    arm = _recruitment_arms(config, (rng, rng), 1)[0].astype(np.int64)
    period, drift = _patient_layout(config)
    effect = np.array([0.0, config.theta1, config.theta2])
    y = effect[arm] + drift + config.sigma * rng.standard_normal(arm.size)
    return TrialDataset(arm=arm, period=period, y=y)


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients of the dummy regression
    ``E[y] = eta0 + theta1*I(arm=1) + theta2*I(arm=2) + tau*I(period=2)``."""

    eta0: float
    theta1_coef: float
    theta2_coef: float
    tau: float


def ols_fit(data: TrialDataset) -> RegressionFit:
    """Least-squares fit of the dummy regression on the patient rows.

    Solved via SVD (numpy ``lstsq``); raises on a rank-deficient design.
    Serves as an independent check of ``model_based_from_means``.
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


def bootstrap_variances(
    data: TrialDataset, config: DesignConfig, b: int, seed
) -> dict[str, float]:
    """Bootstrap variance of every mean-adjusted method, keyed by its
    ``method_label``, from one shared resampling pass of ``b`` resamples of
    one trial's rows (``resample_variances``), drawn from
    ``default_rng(seed)``: ``seed`` may be anything numpy accepts. Raises
    ``RuntimeError`` when the bootstrap fails."""
    cells = tuple(data.cell(*cell)[:, np.newaxis] for cell in CELLS)
    resamples, failed = bootstrap_group(cells, config, b, np.random.default_rng(seed))
    if failed[0]:
        raise RuntimeError("bootstrap cannot satisfy the continuation condition")
    variances = resample_variances(config, resamples)
    return {label: float(v[0]) for label, v in zip(ADJUSTED_METHODS, variances)}

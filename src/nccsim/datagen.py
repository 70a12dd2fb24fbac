"""Trial generation for the two-period platform layout.

Patients are enumerated in recruitment order: the period-1 slots come first
(arm 1 and control interleaved by block randomization at the configured
allocation ratio), then the period-2 slots (control, arm 1, arm 2). The
linear time trend is evaluated on that recruitment index against the maximum
planned sample size, so the drift is balanced across concurrent arms in
expectation. The full trial, including the arm-1 period-2 cell, is always
generated; an interim stop is applied afterwards by ignoring that cell.

Every analysis is a function of the five cell means, so trials are drawn as
cell means, a batch at a time (:func:`draw_trials`). Responses are normal
with known ``sigma``, so a cell mean is exactly ``Normal(theta_k + drift,
sigma^2 / n)``, where ``drift`` is the mean trend over the cell's
recruitment slots. Trials' responses are drawn only where needed, from
their exact conditional distribution given the cell means: the five cells
of a batch of trials, one ``(n, k)`` array each, by :func:`trial_cells`
(what a bootstrap group resamples), and a trial's patient rows by
:func:`expand_trial`, its one-row cells in a recruitment order (what
``single --csv`` writes). There is no trial type besides the five cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignConfig, TrendPattern

#: The five (arm, period) cells of the full design.
CELLS = ((0, 1), (1, 1), (0, 2), (1, 2), (2, 2))


#: Arm and period of each cell, in ``CELLS`` order.
_CELL_ARM = np.array([k for k, _ in CELLS])
_CELL_PERIOD = np.array([s for _, s in CELLS])


def _interleaved_arms(counts, arms, rng: np.random.Generator, size: int) -> np.ndarray:
    """Block-randomized arm sequences for one period, one row per trial.

    Blocks contain the smallest integer multiple of the allocation ratio and
    are shuffled independently, so every prefix is close to the target ratio.
    """
    g = math.gcd(*counts)
    block = np.repeat(np.asarray(arms, dtype=np.int8), [c // g for c in counts])
    tiled = np.tile(block, (size * g, 1))
    return rng.permuted(tiled, axis=1).reshape(size, -1)


def _recruitment_arms(config: DesignConfig, orders, size: int) -> np.ndarray:
    """``(size, total_planned)`` arm labels in recruitment order; ``orders``
    holds the generators of the period-1 and period-2 orders."""
    p1 = _interleaved_arms((config.n01, config.n11), (0, 1), orders[0], size)
    p2 = _interleaved_arms((config.n02, config.n12, config.n22), (0, 1, 2), orders[1], size)
    return np.concatenate([p1, p2], axis=1)


def _patient_layout(config: DesignConfig):
    """Period and mean drift of each recruitment slot."""
    total = config.total_planned
    p1 = config.n01 + config.n11
    period = np.repeat(np.array([1, 2], dtype=np.int64), [p1, total - p1])
    spec = config.trend
    if spec.pattern is TrendPattern.LINEAR:
        drift = spec.lam * np.arange(total) / (total - 1)
    elif spec.pattern is TrendPattern.STEPWISE:
        drift = np.where(period == 2, spec.lam, 0.0)
    else:
        drift = np.zeros(total)
    return period, drift


@dataclass(frozen=True)
class TrialDraws:
    """A batch of trials drawn as their five cell means.

    ``means`` has one row per trial, columns in ``CELLS`` order. ``arms``
    holds each trial's recruitment-order arm labels when the cell means
    depend on them (a linear trend), else ``None``.
    """

    means: np.ndarray
    arms: np.ndarray | None


def draw_trials(
    config: DesignConfig, rng: np.random.Generator, size: int, orders=None
) -> TrialDraws:
    """Draw ``size`` trials as cell means, exactly in distribution.

    A cell mean is ``theta_k + drift + sigma / sqrt(n) * Z``, with ``Z``
    drawn from ``rng`` row by row. The drift is 0 without a trend, ``lam``
    in period 2 for a stepwise trend, and for a linear trend the mean of the
    slot drifts of :func:`_patient_layout` over the cell's recruitment
    slots, which the block randomization places at random. A linear trend
    needs ``orders``, the generators of the period-1 and period-2
    recruitment orders; each draws its rows in turn, so with separate
    streams row ``i`` does not depend on ``size``.
    """
    counts = np.array(config.cells)
    spec = config.trend
    arms = None
    if spec.pattern is TrendPattern.LINEAR:
        if orders is None:
            raise ValueError("a linear trend needs the generators of the recruitment orders")
        arms = _recruitment_arms(config, orders, size)
        _, slot_drift = _patient_layout(config)
        p1 = config.n01 + config.n11
        d1, d2 = slot_drift[:p1], slot_drift[p1:]
        # drift sums of arms 1 and 2; each control cell takes the rest of its period
        s11 = np.where(arms[:, :p1] == 1, d1, 0.0).sum(axis=1)
        s12 = np.where(arms[:, p1:] == 1, d2, 0.0).sum(axis=1)
        s22 = np.where(arms[:, p1:] == 2, d2, 0.0).sum(axis=1)
        sums = np.column_stack([d1.sum() - s11, s11, d2.sum() - s12 - s22, s12, s22])
        drift = sums / counts
    else:
        step = spec.lam if spec.pattern is TrendPattern.STEPWISE else 0.0
        drift = np.where(_CELL_PERIOD == 2, step, 0.0)

    effect = np.array([0.0, config.theta1, config.theta2])[_CELL_ARM]
    scale = config.sigma / np.sqrt(counts)
    means = effect + drift + scale * rng.standard_normal((size, len(CELLS)))
    return TrialDraws(means=means, arms=arms)


def trial_cells(
    config: DesignConfig, draws: TrialDraws, rows, rngs
) -> tuple[np.ndarray, ...]:
    """The responses of the trials ``rows`` of ``draws``, consistent with
    their cell means: one ``(n, k)`` array per cell in ``CELLS`` order,
    column ``j`` the cell of trial ``rows[j]``.

    Given a cell mean ``m``, the responses of the cell are distributed as
    ``m + (d_i - mean(d)) + sigma * (e_i - mean(e))`` with ``d`` the
    patients' drifts and ``e`` fresh standard normals, so drawing the cells
    of a drawn trial is exact. Column ``j``'s ``e`` of all five cells, in
    ``CELLS`` order, are one draw from ``rngs[j]``. Without a linear trend
    the patients of a cell share one drift and the drift term is zero. With
    one, ``d`` are the drifts of the cell's slots in the trial's drawn
    recruitment order, and a cell's values follow it.
    """
    noise = np.empty((len(rows), config.total_planned))
    for row, rng in zip(noise, rngs, strict=True):
        rng.standard_normal(row.size, out=row)
    means = draws.means[rows]
    if draws.arms is not None:
        period, slot_drift = _patient_layout(config)
        slot_cell = draws.arms[rows] + 2 * (period - 1)  # index into CELLS
        slot_drift = np.broadcast_to(slot_drift, slot_cell.shape)
    cells = []
    stop = 0
    for c, n in enumerate(config.cells):
        start, stop = stop, stop + n
        residual = noise[:, start:stop]
        residual -= residual.mean(axis=1, keepdims=True)
        residual *= config.sigma
        if draws.arms is not None:
            drift = slot_drift[slot_cell == c].reshape(residual.shape)
            residual += drift - drift.mean(axis=1, keepdims=True)
        residual += means[:, c, np.newaxis]
        # C order: on another layout BLAS may sum the bootstrap's products in another order
        cells.append(residual.T.copy())
    return tuple(cells)


def expand_trial(
    config: DesignConfig, draws: TrialDraws, row: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Patient rows of trial ``row`` of ``draws``: aligned ``arm``,
    ``period`` and ``y`` arrays, row ``j`` the ``j + 1``-th patient
    recruited. Its cells are the one-row :func:`trial_cells` draw from
    ``rng``, placed into a recruitment order.

    The order is the drawn one when ``draws`` kept it (a linear trend), else
    it is drawn from ``rng`` after the cells. The responses of each cell, in
    recruitment order, are the cell's column.
    """
    cells = trial_cells(config, draws, [row], [rng])
    if draws.arms is None:
        arm = _recruitment_arms(config, (rng, rng), 1)[0]
    else:
        arm = draws.arms[row]
    arm = arm.astype(np.int64)
    period, _ = _patient_layout(config)
    slot_cell = arm + 2 * (period - 1)
    y = np.empty(arm.size)
    for k, values in enumerate(cells):
        y[slot_cell == k] = values[:, 0]
    return arm, period, y

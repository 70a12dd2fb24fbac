"""Mean-adjusted estimation and inference for the arm-2 effect, on cell means.

Every analysis of a trial is a function of its five cell means at the
design's cell counts, and this module holds its one implementation.
:func:`point_estimates` analyses a batch of trials in one numpy pass: the
interim look, the unadjusted (model-based), separate and mean-adjusted
estimates and the bias corrections, with the constants the design
determines read from its :class:`DesignConfig`. The model-based estimate
is the closed form :func:`model_based_from_means`, which borrows
trend-corrected non-concurrent controls. A stop is a mask: a stopped
trial takes the concurrent-only estimate under every method. When arm 1
continues, the model-based estimate is debiased by subtracting a plug-in
estimate of its conditional bias, and its variance is estimated with a
stratified bootstrap that replays the trial including the futility rule.
The bootstrap has two steps: :func:`bootstrap_resamples` resamples one
trial's five cells into the cell means of its accepted resamples, and
:func:`resample_variances` analyses the resamples of many trials with one
:func:`point_estimates` call. Each method is then tested with a Wald-type
statistic: known-sigma for a stopped trial and the unadjusted estimate,
bootstrap for the adjusted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normal
from .datagen import CELLS
from .design import MAX_COUNT, DesignConfig, as_integer, ncc_weight
from .theta1 import Theta1Method, plug_ins

METHOD_UNADJUSTED = "unadjusted"
METHOD_SEPARATE = "separate"


def method_label(method: Theta1Method) -> str:
    return f"mae_{method.value}"


#: The mean-adjusted methods, one per arm-1 plug-in, in ``Theta1Method`` order.
ADJUSTED_METHODS = tuple(method_label(m) for m in Theta1Method)

#: Output order of the estimator methods.
METHODS = (METHOD_UNADJUSTED, METHOD_SEPARATE) + ADJUSTED_METHODS


class BootstrapError(RuntimeError):
    """Raised when the resampling loop cannot satisfy the continuation rule."""


@dataclass(frozen=True)
class BootstrapSettings:
    """``b`` accepted resamples per bootstrap and the user's bootstrap
    ``seed``. One resample has zero variance, so ``b`` must be an integer of
    at least 2 (and at most :data:`~nccsim.design.MAX_COUNT`); ``seed`` is a
    non-negative integer. Numpy integers are stored as ``int``."""

    b: int
    seed: int = 0

    def __post_init__(self):
        b = as_integer(self.b)
        if b is None:
            raise ValueError(f"bootstrap resample count b must be an integer, got {self.b!r}")
        if b < 2:
            raise ValueError(f"bootstrap resample count must be >= 2, got {b}")
        if b > MAX_COUNT:
            raise ValueError(f"bootstrap resample count must be at most {MAX_COUNT}, got {b}")
        seed = as_integer(self.seed)
        if seed is None or seed < 0:
            raise ValueError(f"bootstrap seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "seed", seed)


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


def bias_correction(theta1_hat, config: DesignConfig):
    """``rho * se1 * hazard(c1 - theta1_hat / se1)`` at ``config``'s ``rho``,
    period-1 SE ``se1`` and interim cutoff ``c1``.

    The normal hazard is finite for every finite argument, so the correction
    is finite, continuous and non-increasing in ``theta1_hat``. Broadcasts
    over arrays of ``theta1_hat``.
    """
    se1 = config.period1_se
    gamma = config.c1 - np.asarray(theta1_hat, dtype=float) / se1
    out = config.rho * se1 * normal.hazard(gamma)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PointEstimates:
    """Interim look and point estimates of ``n`` trials: ``z11`` and
    ``continued`` per trial, ``estimates`` and ``corrections`` as ``(6, n)``
    rows in ``METHODS`` order (unadjusted, separate, ``ADJUSTED_METHODS``).
    A stop is a mask: stopped trials take the separate estimate and a zero
    correction under every method."""

    z11: np.ndarray
    continued: np.ndarray
    estimates: np.ndarray
    corrections: np.ndarray


def interim_look(config: DesignConfig, m01, m11):
    """The futility look at period-1 cell means: ``z11`` and whether arm 1
    continues, ``z11 >= c1``; also the bootstrap's acceptance rule."""
    z11 = (m11 - m01) / config.period1_se
    return z11, z11 >= config.c1


def point_estimates(config: DesignConfig, means: np.ndarray) -> PointEstimates:
    """Analyse ``(n, 5)`` cell means (``CELLS`` order) of trials of ``config``."""
    m01, m11, m02, m12, m22 = means.T
    z11, continued = interim_look(config, m01, m11)
    separate = m22 - m02

    cont = np.flatnonzero(continued)
    c01, c11, c02, c12, c22 = means[cont].T
    model_based = model_based_from_means(c01, c11, c02, c12, c22, *config.cells[:4])
    theta1_hats = plug_ins(c01, c11, c02, c12, config)
    correction = bias_correction(np.stack([theta1_hats[m] for m in Theta1Method]), config)

    # rows in METHODS order (unadjusted, separate, the adjusted methods); a
    # stopped trial keeps the separate estimate and a zero correction
    estimates = np.tile(separate, (len(METHODS), 1))
    corrections = np.zeros_like(estimates)
    estimates[0, cont] = model_based
    estimates[2:, cont] = model_based - correction
    corrections[2:, cont] = correction
    return PointEstimates(z11, continued, estimates, corrections)


#: Values gathered per block by :func:`_bootstrap_cell_means`. A block's
#: gathered rows (256 KB) stay in a core's L2 cache before they are summed;
#: blocks of 16K–64K values timed the same, 128K lost the gain.
GATHER_BLOCK_VALUES = 2**15


def _bootstrap_cell_means(rng, values: np.ndarray, draws: int) -> np.ndarray:
    """Means of ``draws`` resamples with replacement of ``values``.

    All indices come from one ``rng.integers(0, n, size=(draws, n))`` draw,
    as ``uint16`` when ``n <= 2**16`` (cheaper to draw) and ``int64`` above.
    The gather and the row sums run over blocks of about
    :data:`GATHER_BLOCK_VALUES` values into one reused buffer, so no
    ``(draws, n)`` float array is built; ``take`` skips the bounds check,
    since the indices are in range by construction. A mean is its row sum
    divided by ``n``, so the result equals ``values[idx].mean(axis=1)`` bit
    for bit.
    """
    n = values.size
    idx = rng.integers(0, n, size=(draws, n), dtype=np.uint16 if n <= 2**16 else np.int64)
    rows = max(1, GATHER_BLOCK_VALUES // n)
    gathered = np.empty((min(rows, draws), n))
    out = np.empty(draws)
    for start in range(0, draws, rows):
        block = idx[start : start + rows]
        buffer = gathered[: block.shape[0]]
        values.take(block, out=buffer, mode="clip")
        np.sum(buffer, axis=1, out=out[start : start + rows])
    out /= n
    return out


def bootstrap_resamples(
    cells: tuple[np.ndarray, ...], config: DesignConfig, b: int, rng: np.random.Generator
) -> np.ndarray:
    """``(b, 5)`` cell means of the accepted resamples of one trial.

    ``cells`` holds the trial's five cells' responses in ``CELLS`` order.
    Replays the trial on resampled data: draw the period-1 arm-1 and control
    cells with replacement at their original sizes, keep the resample only
    if :func:`interim_look` lets arm 1 continue, then draw the three
    period-2 cells. Repeats until ``b`` resamples are accepted, drawing every
    index from ``rng``.

    Period-1 proposals are drawn in batches sized for the ``need`` resamples
    still missing: ``ceil(1.25 * need / rate)`` proposals, at least 64 and at
    most 8192, where ``rate`` is the acceptance rate seen so far (floored at
    0.02). The first batch assumes every proposal is accepted, because a
    continuing trial's own resamples mostly are: ``ceil(1.25 * b)``
    proposals, 250 at ``b = 200``. Only the period-2 cells of the first
    ``need`` hits are drawn. The accepted resamples are the first ``b``
    accepted proposals of an i.i.d. proposal stream, so the batching changes
    which resamples are drawn, not their law; for a given state of ``rng``
    they are deterministic. Each cell's resample means come from
    :func:`_bootstrap_cell_means`.

    The look and the correction use the design's cutoff and SE, so the cell
    sizes must be the design's. Raises :class:`BootstrapError` after
    ``100 * b`` consecutive rejections, and ``ValueError`` when the cell
    sizes differ from the design's.
    """
    counts = tuple(values.size for values in cells)
    if counts != config.cells:
        raise ValueError(
            f"the trial's cell counts {counts} differ from the design's {config.cells}"
        )
    y01, y11, y02, y12, y22 = cells

    rejection_limit = 100 * b
    need = b
    streak = 0
    attempts = 0
    accepted = 0
    out = np.empty((b, len(CELLS)))

    while need > 0:
        rate = max(accepted / attempts if attempts else 1.0, 0.02)
        batch = int(min(8192, max(64, math.ceil(need / rate * 1.25))))
        m11 = _bootstrap_cell_means(rng, y11, batch)
        m01 = _bootstrap_cell_means(rng, y01, batch)
        attempts += batch
        hits = np.flatnonzero(interim_look(config, m01, m11)[1])
        accepted += hits.size

        # The run of rejections up to this batch's first hit, or through the
        # batch. A batch holds at most max(64, ceil(62.5 * b)) < 100 * b
        # proposals, so no run between two of its hits reaches the limit.
        run = streak + (int(hits[0]) if hits.size else batch)
        if run >= rejection_limit:
            raise BootstrapError("bootstrap cannot satisfy continuation condition")
        if hits.size == 0:
            streak = run
            continue
        streak = batch - 1 - int(hits[-1])

        take = hits[:need]
        rows = out[b - need : b - need + take.size]
        rows[:, 0] = m01[take]
        rows[:, 1] = m11[take]
        # the stream draws the period-2 cells in the order y12, y02, y22
        rows[:, 3] = _bootstrap_cell_means(rng, y12, take.size)
        rows[:, 2] = _bootstrap_cell_means(rng, y02, take.size)
        rows[:, 4] = _bootstrap_cell_means(rng, y22, take.size)
        need -= take.size

    return out


def resample_variances(config: DesignConfig, resamples: np.ndarray) -> np.ndarray:
    """``(4, k)`` bootstrap variances of ``ADJUSTED_METHODS`` for ``k`` trials.

    ``resamples`` is ``(k, b, 5)``: each trial's accepted resample cell means
    from :func:`bootstrap_resamples`. All ``k * b`` rows are analysed with
    one :func:`point_estimates` call and each trial's variance is taken over
    its ``b`` estimates (divisor ``b``, matching the resample-count
    convention). The analysis works element by element and a row-wise
    ``np.var`` equals the 1-D one bit for bit, so a trial's variance does not
    depend on which trials share its call.
    """
    k, b, _ = resamples.shape
    point = point_estimates(config, resamples.reshape(k * b, len(CELLS)))
    return np.var(point.estimates[2:].reshape(-1, k, b), axis=-1)


def wald_variances(
    continued: np.ndarray, config: DesignConfig, bootstrap: np.ndarray
) -> np.ndarray:
    """``(6, n)`` variances behind each method's test, rows in ``METHODS``
    order; NaN where a method has none.

    Stopped trials use the known-sigma separate variance under every method.
    Continuing ones use the model-based variance (unadjusted), the separate
    one (separate) or their row of the ``(4, n)`` ``bootstrap`` variances
    (adjusted methods, NaN when not bootstrapped).
    """
    separate = separate_variance(config.n02, config.n22, config.sigma)
    model_based = model_based_variance(*config.cells, config.sigma)
    known = np.broadcast_to([[model_based], [separate]], (2, continued.size))
    return np.where(continued, np.vstack([known, bootstrap]), separate)


def t_statistic(estimate: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """``estimate / sqrt(variance)``; a zero variance gives 0 or +/-inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = estimate / np.sqrt(variance)
    degenerate = np.where(estimate == 0.0, 0.0, np.copysign(np.inf, estimate))
    return np.where(variance > 0.0, t, np.where(np.isnan(variance), np.nan, degenerate))


def rejections(estimate, variance, z_alpha: float) -> np.ndarray:
    """1 / 0 per trial, -1 where the method has no test."""
    flags = (t_statistic(estimate, variance) > z_alpha).astype(np.int8)
    flags[np.isnan(variance)] = -1
    return flags

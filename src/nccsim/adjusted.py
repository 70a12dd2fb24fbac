"""Mean-adjusted estimation and inference for the arm-2 effect.

When arm 1 continues, the model-based estimate is debiased by subtracting a
plug-in estimate of its conditional bias, and its variance is estimated with
a stratified bootstrap that replays the trial including the futility rule.
When arm 1 stops, everything collapses to the concurrent-only analysis and a
standard z-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import normal
from .datagen import TrialDataset
from .design import DesignConfig, futility_cutoff
from .estimators import (
    InterimResult,
    model_based_estimate,
    model_based_from_means,
    model_based_variance,
    separate_estimate,
    separate_variance,
)
from .theta1 import (
    Theta1Method,
    _info_from_counts,
    cumvue_from_means,
    estimate_theta1,
    pooled_from_means,
)

#: Continuation probabilities below this are treated as numerically zero.
SF_FLOOR = 1e-12
#: Correction cap, in units of ``rho * se1``, applied on the floor path.
CAP_FACTOR = 10.0

METHOD_UNADJUSTED = "unadjusted"
METHOD_SEPARATE = "separate"


def method_label(method: Theta1Method) -> str:
    return f"mae_{method.value}"


class BootstrapError(RuntimeError):
    """Raised when the resampling loop cannot satisfy the continuation rule."""


@dataclass(frozen=True)
class BootstrapSettings:
    """``b`` accepted resamples; ``seed`` keys the resampling stream."""

    b: int
    seed: object = 0

    def __post_init__(self):
        if self.b < 1:
            raise ValueError(f"bootstrap resample count must be >= 1, got {self.b}")


@dataclass(frozen=True)
class EstimateRecord:
    """One estimator's output for one trial."""

    method: str
    estimate: float
    continued: bool
    bias_correction: float
    variance: float | None = None
    t_statistic: float | None = None
    rejected: bool | None = None


def conditional_bias_estimate(theta1_hat, config: DesignConfig):
    """Plug-in estimate of the conditional bias given continuation.

    Evaluates ``rho * se1 * hazard(c1 - theta1_hat / se1)`` at the design's
    constants; see :func:`bias_correction`. Broadcasts over arrays of
    ``theta1_hat``.
    """
    return bias_correction(
        theta1_hat, futility_cutoff(config.alpha1), config.rho, config.period1_se
    )


def bias_correction(theta1_hat, c1: float, rho: float, se1: float):
    """``rho * se1 * hazard(c1 - theta1_hat / se1)`` for precomputed constants.

    When the implied continuation probability falls below ``SF_FLOOR`` the
    correction is capped at ``CAP_FACTOR * rho * se1`` so an extreme plug-in
    value cannot blow up the adjustment. Broadcasts over arrays of
    ``theta1_hat``.
    """
    gamma = c1 - np.asarray(theta1_hat, dtype=float) / se1
    sf = normal.sf(gamma)
    capped = sf < SF_FLOOR
    safe_gamma = np.where(capped, 0.0, gamma)
    out = np.where(
        capped, CAP_FACTOR * rho * se1, rho * se1 * normal.hazard(safe_gamma)
    )
    return float(out) if out.ndim == 0 else out


def mae(
    data: TrialDataset,
    config: DesignConfig,
    interim: InterimResult,
    method: Theta1Method,
) -> float:
    """Mean-adjusted arm-2 estimate.

    Stopped: the concurrent-only difference, exactly. Continued: the
    model-based estimate minus the plug-in conditional bias at the chosen
    arm-1 estimator.
    """
    if not interim.continued:
        return separate_estimate(data)
    theta1_hat = estimate_theta1(data, config, interim, method)
    return model_based_estimate(data) - conditional_bias_estimate(theta1_hat, config)


def _bootstrap_cell_means(rng, values: np.ndarray, draws: int) -> np.ndarray:
    idx = rng.integers(0, values.size, size=(draws, values.size))
    return values[idx].mean(axis=1)


def bootstrap_mae_estimates(
    data: TrialDataset,
    config: DesignConfig,
    settings: BootstrapSettings,
    methods: tuple[Theta1Method, ...],
) -> dict[Theta1Method, np.ndarray]:
    """Accepted-resample adjusted estimates, per arm-1 estimator.

    Replays the trial on resampled data: draw the period-1 arm-1 and control
    cells with replacement at their original sizes, keep the resample only if
    its interim statistic clears the futility cutoff, then draw the three
    period-2 cells and recompute the adjusted estimate (the plug-in arm-1
    estimate included). Repeats until ``settings.b`` resamples are accepted.
    Resamples are drawn in batches for speed; the sequence of accepted
    estimates is a deterministic function of ``settings.seed``.

    Raises :class:`BootstrapError` after ``100 * b`` consecutive rejections.
    """
    y01, y11 = data.cell(0, 1), data.cell(1, 1)
    y02, y12, y22 = data.cell(0, 2), data.cell(1, 2), data.cell(2, 2)
    if y12.size == 0:
        raise ValueError("bootstrap requires arm-1 period-2 data (arm 1 continued)")
    n01, n11, n02, n12 = y01.size, y11.size, y02.size, y12.size

    sigma = config.sigma
    c1 = futility_cutoff(config.alpha1)
    se1 = sigma * math.sqrt(1.0 / n11 + 1.0 / n01)
    info = _info_from_counts(n01, n11, n02, n12, sigma)
    # the correction uses the design's rho and se1, as conditional_bias_estimate does
    rho, design_se1 = config.rho, config.period1_se

    rng = np.random.default_rng(settings.seed)
    b = settings.b
    rejection_limit = 100 * b
    need = b
    streak = 0
    attempts = 0
    accepted = 0
    collected: dict[Theta1Method, list[np.ndarray]] = {m: [] for m in methods}

    while need > 0:
        rate = max(accepted / attempts if attempts else 0.5, 0.02)
        batch = int(min(8192, max(64, math.ceil(need / rate * 1.25))))
        m11 = _bootstrap_cell_means(rng, y11, batch)
        m01 = _bootstrap_cell_means(rng, y01, batch)
        attempts += batch
        z_star = (m11 - m01) / se1
        hits = np.flatnonzero(z_star >= c1)
        accepted += hits.size

        if hits.size == 0:
            streak += batch
            if streak >= rejection_limit:
                raise BootstrapError("bootstrap cannot satisfy continuation condition")
            continue
        if streak + hits[0] >= rejection_limit:
            raise BootstrapError("bootstrap cannot satisfy continuation condition")
        gaps = np.diff(hits) - 1
        if gaps.size and int(gaps.max()) >= rejection_limit:
            raise BootstrapError("bootstrap cannot satisfy continuation condition")

        take = hits[:need]
        if take.size == hits.size:
            streak = batch - 1 - int(hits[-1])
        m11a, m01a = m11[take], m01[take]
        m12 = _bootstrap_cell_means(rng, y12, take.size)
        m02 = _bootstrap_cell_means(rng, y02, take.size)
        m22 = _bootstrap_cell_means(rng, y22, take.size)

        base = model_based_from_means(m01a, m11a, m02, m12, m22, n01, n11, n02, n12)
        pooled = None
        if Theta1Method.POOLED in methods or Theta1Method.CUMVUE in methods:
            pooled = pooled_from_means(m01a, m11a, m02, m12, n01, n11, n02, n12)
        for m in methods:
            if m is Theta1Method.POOLED:
                theta1_hat = pooled
            elif m is Theta1Method.PERIOD1:
                theta1_hat = m11a - m01a
            elif m is Theta1Method.PERIOD2:
                theta1_hat = m12 - m02
            else:
                theta1_hat = cumvue_from_means(pooled, info, c1)
            collected[m].append(base - bias_correction(theta1_hat, c1, rho, design_se1))
        need -= take.size

    return {m: np.concatenate(parts)[:b] for m, parts in collected.items()}


def bootstrap_variances(
    data: TrialDataset,
    config: DesignConfig,
    settings: BootstrapSettings,
    methods: tuple[Theta1Method, ...],
) -> dict[Theta1Method, float]:
    """Bootstrap variances for several arm-1 estimators from one shared
    resampling pass (divisor ``b``, matching the resample-count convention)."""
    estimates = bootstrap_mae_estimates(data, config, settings, methods)
    return {m: float(np.var(e)) for m, e in estimates.items()}


def bootstrap_variance(
    data: TrialDataset,
    config: DesignConfig,
    settings: BootstrapSettings,
    method: Theta1Method = Theta1Method.CUMVUE,
) -> float:
    """Bootstrap variance of the adjusted estimate for one arm-1 estimator."""
    return bootstrap_variances(data, config, settings, (method,))[method]


def _t_statistic(estimate: float, variance: float) -> float:
    if variance > 0.0:
        return estimate / math.sqrt(variance)
    if estimate == 0.0:
        return 0.0
    return math.copysign(math.inf, estimate)


def _tested_record(
    method: str,
    estimate: float,
    continued: bool,
    bias_correction: float,
    variance: float,
    alpha: float,
) -> EstimateRecord:
    t = _t_statistic(estimate, variance)
    return EstimateRecord(
        method=method,
        estimate=estimate,
        continued=continued,
        bias_correction=bias_correction,
        variance=variance,
        t_statistic=t,
        rejected=bool(t > normal.quantile(1.0 - alpha)),
    )


def _mae_record(
    data: TrialDataset,
    config: DesignConfig,
    interim: InterimResult,
    method: Theta1Method,
    variance: float | None,
) -> EstimateRecord:
    label = method_label(method)
    if not interim.continued:
        estimate = separate_estimate(data)
        var = separate_variance(data.count(0, 2), data.count(2, 2), config.sigma)
        return _tested_record(label, estimate, False, 0.0, var, config.alpha)
    theta1_hat = estimate_theta1(data, config, interim, method)
    correction = conditional_bias_estimate(theta1_hat, config)
    estimate = model_based_estimate(data) - correction
    if variance is None:
        return EstimateRecord(
            method=label,
            estimate=estimate,
            continued=True,
            bias_correction=correction,
        )
    return _tested_record(label, estimate, True, correction, variance, config.alpha)


def wald_test(
    data: TrialDataset,
    config: DesignConfig,
    interim: InterimResult,
    method: Theta1Method,
    settings: BootstrapSettings | None,
) -> EstimateRecord:
    """Adjusted estimate with its test.

    Stopped: standard z-test of the concurrent-only difference. Continued:
    the adjusted estimate scaled by its bootstrap standard error; with
    ``settings=None`` the point estimate is returned without a test.
    """
    variance = None
    if interim.continued and settings is not None:
        variance = bootstrap_variance(data, config, settings, method)
    return _mae_record(data, config, interim, method, variance)


def separate_test(
    data: TrialDataset, config: DesignConfig, interim: InterimResult
) -> EstimateRecord:
    """Concurrent-only estimate with its z-test, ignoring the interim."""
    estimate = separate_estimate(data)
    var = separate_variance(data.count(0, 2), data.count(2, 2), config.sigma)
    return _tested_record(
        METHOD_SEPARATE, estimate, interim.continued, 0.0, var, config.alpha
    )


def unadjusted_test(
    data: TrialDataset, config: DesignConfig, interim: InterimResult
) -> EstimateRecord:
    """Model-based estimate with its known-sigma z-test, no interim adjustment."""
    if interim.continued:
        estimate = model_based_estimate(data)
        var = model_based_variance(
            data.count(0, 1),
            data.count(1, 1),
            data.count(0, 2),
            data.count(1, 2),
            data.count(2, 2),
            config.sigma,
        )
    else:
        estimate = separate_estimate(data)
        var = separate_variance(data.count(0, 2), data.count(2, 2), config.sigma)
    return _tested_record(
        METHOD_UNADJUSTED, estimate, interim.continued, 0.0, var, config.alpha
    )

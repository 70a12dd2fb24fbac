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
continues, the model-based estimate is debiased by subtracting its
conditional bias, :func:`~nccsim.bias.conditional_bias`, at each arm-1
plug-in, and its variance is estimated with a stratified bootstrap that
replays the trial including the futility rule.
The bootstrap has two steps: :func:`bootstrap_group` resamples the five
cells of a group of trials into the cell means of each trial's accepted
resamples, every resample a row of counts shared by the group, so a cell's
resample means for the whole group are one matrix product; and
:func:`resample_variances` analyses the resamples of many trials with one
:func:`point_estimates` call. :func:`bootstrap_resamples` is the one-trial
call of :func:`bootstrap_group`. Each method is then tested with a Wald-type
statistic: known-sigma for a stopped trial and the unadjusted estimate,
bootstrap for the adjusted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bias import bias_inputs, conditional_bias
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
    at least 2, and at most ``MAX_COUNT // 48`` so that the bootstrap's
    largest array, ``(6, b)`` float64, has a valid size; ``seed`` is a
    non-negative integer. Numpy integers are stored as ``int``."""

    b: int
    seed: int = 0

    def __post_init__(self):
        b = as_integer(self.b)
        if b is None:
            raise ValueError(f"bootstrap resample count b must be an integer, got {self.b!r}")
        if b < 2:
            raise ValueError(f"bootstrap resample count must be >= 2, got {b}")
        # point_estimates' (6, b) float64 block is the largest array a bootstrap builds
        if 48 * b > MAX_COUNT:
            raise ValueError(f"bootstrap resample count must be at most {MAX_COUNT // 48}, got {b}")
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
    stacked = np.stack([theta1_hats[m] for m in Theta1Method])
    correction = conditional_bias(replace(bias_inputs(config), theta1=stacked))

    # rows in METHODS order (unadjusted, separate, the adjusted methods); a
    # stopped trial keeps the separate estimate and a zero correction
    estimates = np.tile(separate, (len(METHODS), 1))
    corrections = np.zeros_like(estimates)
    estimates[0, cont] = model_based
    estimates[2:, cont] = model_based - correction
    corrections[2:, cont] = correction
    return PointEstimates(z11, continued, estimates, corrections)


#: Resample indices counted per block by :func:`_resample_means`. A block's
#: offset indices, counts and float counts (under 1 MB) stay in a core's L2
#: cache: counting 1250 resamples of n = 1500 in one pass cost about 10 ns
#: of CPU per index, against about 4 ns in blocks.
COUNT_BLOCK_VALUES = 2**15

#: Largest ``m * n * k`` of one ``(m, n) @ (n, k)`` product in
#: :func:`_resample_means`; wider groups are multiplied in column slices.
#: OpenBLAS runs a larger product on several threads, which cost 2.6x the
#: time of one thread on a 2-vCPU host with the other vCPU busy
#: (21 x 1500 x 40: 334 us against 130 us), and far more when two such
#: processes share the host.
PRODUCT_VALUES = 2**18


def _resample_means(rng, values: np.ndarray, draws: int) -> np.ndarray:
    """``(draws, k)`` means of ``draws`` resamples with replacement of the
    ``n`` rows of ``values``, an ``(n, k)`` array: resample ``t`` draws the
    same rows of every column.

    All indices come from one ``rng.integers(0, n, size=(draws, n))`` draw,
    as ``uint16`` when ``n <= 2**16`` (cheaper to draw) and ``int64`` above.
    A resample is its vector of counts, how often it drew each row
    (Efron & Tibshirani 1993), so the resample means are ``W @ values / n``
    with ``W`` the ``(draws, n)`` counts. ``W`` is built with
    ``np.bincount`` over blocks of about :data:`COUNT_BLOCK_VALUES`
    indices, each row offset by ``n`` times its place in the block, and
    multiplied block by block, so no ``(draws, n)`` float array is built;
    a product spans at most :data:`PRODUCT_VALUES` multiply-adds, so that
    BLAS keeps it on one thread.
    """
    n, k = values.shape
    idx = rng.integers(0, n, size=(draws, n), dtype=np.uint16 if n <= 2**16 else np.int64)
    rows = min(max(1, COUNT_BLOCK_VALUES // n), draws)
    columns = max(1, PRODUCT_VALUES // (rows * n))
    offsets = np.arange(rows)[:, np.newaxis] * n
    flat = np.empty((rows, n), dtype=np.intp)
    counts = np.empty((rows, n))
    out = np.empty((draws, k))
    for start in range(0, draws, rows):
        block = idx[start : start + rows]
        m = block.shape[0]
        np.add(block, offsets[:m], out=flat[:m])
        counts[:m] = np.bincount(flat[:m].ravel(), minlength=m * n).reshape(m, n)
        for first in range(0, k, columns):
            part = slice(first, first + columns)
            np.matmul(counts[:m], values[:, part], out=out[start : start + m, part])
    out /= n
    return out


def bootstrap_group(
    cells: tuple[np.ndarray, ...], config: DesignConfig, b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(k, b, 5)`` cell means of the accepted resamples of ``k`` trials,
    and the ``(k,)`` mask of the trials whose bootstrap failed.

    ``cells`` holds the five cells' responses in ``CELLS`` order, each an
    ``(n, k)`` array whose column ``j`` is trial ``j``'s cell. Replays each
    trial on resampled data: draw the period-1 arm-1 and control cells with
    replacement at their original sizes, keep a resample only if
    :func:`interim_look` lets arm 1 continue, then draw the three period-2
    cells. Every resample of a cell is one row of counts shared by the
    ``k`` trials (:func:`_resample_means`), so each trial still gets i.i.d.
    resamples of its own data; only the trials of one call are dependent.

    Period-1 proposals come in shared batches. Each trial applies the look
    to its own column and takes its first accepted proposals, up to the
    ``need`` it still misses. A batch is sized for the trial that needs
    most: ``ceil(1.25 * need / rate)`` proposals, at least 64 and at most
    8192, where ``rate`` is that trial's acceptance rate so far (floored at
    0.02). The first batch assumes every proposal is accepted, because a
    continuing trial's own resamples mostly are: ``ceil(1.25 * b)``
    proposals, 250 at ``b = 200``. Only the trials still short see the
    next batch. The period-2 cells are drawn once, ``b`` rows after the
    last batch, for the trials that did not fail: they are independent of
    period 1, so row ``t`` pairs with each trial's ``t``-th accepted
    proposal. For a given state of ``rng`` all of it is deterministic.

    A trial fails after ``100 * b`` consecutive rejections and sees no
    further batch; its rows of the result are undefined. Raises
    ``ValueError`` when the cell counts differ from the design's, since the
    look and the correction use the design's cutoff and SE.
    """
    counts = tuple(values.shape[0] for values in cells)
    if counts != config.cells:
        raise ValueError(
            f"the trials' cell counts {counts} differ from the design's {config.cells}"
        )
    y01, y11, y02, y12, y22 = cells
    k = y01.shape[1]

    rejection_limit = 100 * b
    need = np.full(k, b)
    streak = np.zeros(k, dtype=np.int64)
    accepted = np.zeros(k, dtype=np.int64)
    failed = np.zeros(k, dtype=bool)
    attempts = 0
    active = np.arange(k)
    out = np.empty((k, b, len(CELLS)))

    while active.size:
        rate = np.maximum(accepted[active] / attempts if attempts else 1.0, 0.02)
        batch = int(min(8192, max(64, math.ceil(np.max(need[active] / rate) * 1.25))))
        m11 = _resample_means(rng, y11[:, active], batch)
        m01 = _resample_means(rng, y01[:, active], batch)
        attempts += batch
        hit = interim_look(config, m01, m11)[1]
        n_hits = hit.sum(axis=0)
        accepted[active] += n_hits

        # The run of rejections up to a trial's first hit of this batch, or
        # through the batch. A batch holds at most max(64, ceil(62.5 * b)) <
        # 100 * b proposals, so no run between two of its hits reaches the
        # limit.
        missed = n_hits == 0
        run = streak[active] + np.where(missed, batch, hit.argmax(axis=0))
        lost = run >= rejection_limit
        streak[active] = np.where(missed, run, hit[::-1].argmax(axis=0))

        # each trial's first `need` hits, in proposal order; the t-th of
        # them fills the trial's next free row
        rank = np.cumsum(hit, axis=0)
        take = hit & (rank <= need[active]) & ~lost
        proposal, column = np.nonzero(take)
        trial = active[column]
        row = b - need[trial] + rank[proposal, column] - 1
        out[trial, row, 0] = m01[proposal, column]
        out[trial, row, 1] = m11[proposal, column]
        need[active] -= take.sum(axis=0)
        failed[active[lost]] = True
        active = active[(need[active] > 0) & ~lost]

    done = np.flatnonzero(~failed)
    if done.size:
        # the stream draws the period-2 cells in the order y12, y02, y22
        out[done, :, 3] = _resample_means(rng, y12[:, done], b).T
        out[done, :, 2] = _resample_means(rng, y02[:, done], b).T
        out[done, :, 4] = _resample_means(rng, y22[:, done], b).T
    return out, failed


def bootstrap_resamples(
    cells: tuple[np.ndarray, ...], config: DesignConfig, b: int, rng: np.random.Generator
) -> np.ndarray:
    """``(b, 5)`` cell means of the accepted resamples of one trial: the
    ``k = 1`` call of :func:`bootstrap_group`, on the trial's five cells'
    responses in ``CELLS`` order. Raises :class:`BootstrapError` after
    ``100 * b`` consecutive rejections."""
    resamples, failed = bootstrap_group(
        tuple(values[:, np.newaxis] for values in cells), config, b, rng
    )
    if failed[0]:
        raise BootstrapError("bootstrap cannot satisfy continuation condition")
    return resamples[0]


def resample_variances(config: DesignConfig, resamples: np.ndarray) -> np.ndarray:
    """``(4, k)`` bootstrap variances of ``ADJUSTED_METHODS`` for ``k`` trials.

    ``resamples`` is ``(k, b, 5)``: each trial's accepted resample cell means
    from :func:`bootstrap_group`. All ``k * b`` rows are analysed with
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

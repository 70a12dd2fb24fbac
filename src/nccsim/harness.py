"""Replication engine: scenarios, deterministic seeding, parallel execution.

Replicates are drawn and analysed in chunks of ``CHUNK`` consecutive
indices. The trials of chunk ``c`` are drawn as cell means from a seed
stream keyed by ``(master seed, scenario id, c)`` (a linear trend's
recruitment orders from two more, one per period), and the interim
decision, every estimate, bias correction and known-sigma test is computed
for the whole chunk in one numpy pass (:mod:`nccsim.adjusted`). Replicate
``i`` is row ``i % CHUNK`` of chunk ``i // CHUNK``, and each stream draws
its rows in order, so a row does not depend on how many replicates follow
it. The bootstrap serves a chunk's continuing replicates in groups of at
most ``max(1, ANALYSIS_ROWS // b)``, in index order. The five cells'
responses (not patient rows) of replicate ``i`` are drawn from a stream
keyed by ``(master seed, scenario id, i, 0)``. Group ``g`` of chunk ``c``
draws one resample-count matrix per cell, shared by its replicates, from a
stream keyed by ``(master seed, scenario id, c, 1, g, bootstrap seed)``,
and its accepted resamples are analysed together (:mod:`nccsim.adjusted`).
Results are therefore bit-identical for any worker count and execution
order, and :func:`run_replicate` replays a replicate exactly as its row of
its chunk. Each chunk returns its rows of the one per-replicate record,
:class:`ReplicateArrays`; aggregation reduces it in index order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .adjusted import (
    ADJUSTED_METHODS,
    METHODS,
    BootstrapSettings,
    bootstrap_group,
    point_estimates,
    rejections,
    resample_variances,
    wald_variances,
)
from .datagen import TrialDraws, draw_trials, expand_trial, trial_cells
from .design import DesignConfig, TimeTrendSpec, TrendPattern, as_integer

#: Output order of the reported statistics.
STATISTICS = (
    "marginal_bias",
    "conditional_bias",
    "marginal_rmse",
    "conditional_rmse",
    "marginal_rejection_rate",
    "conditional_rejection_rate",
    "continuation_frequency",
)

#: Fraction of failed replicates above which a scenario is marked invalid.
MAX_FAILURE_FRACTION = 0.01

#: Replicates drawn and analysed together; also the unit of work of a pool.
CHUNK = 512

#: Bootstrap resample rows per group: a chunk's continuing replicates are
#: bootstrapped in groups of ``max(1, ANALYSIS_ROWS // b)``, which share
#: their resample counts and are analysed with one call. A call costs about
#: 0.25 ms plus 0.6 us per row, so groups of 2^13 rows pay almost none of
#: the fixed part. The cap bounds the analysis's temporaries: at B = 1000
#: and ``alpha1 = 0.95``, a run's peak RSS is 41 MB with it and 190 MB with
#: a whole chunk in one call (40 MB with one call per replicate).
ANALYSIS_ROWS = 2**13

HYPOTHESES = ("null", "alternative")


@dataclass(frozen=True)
class Scenario:
    """One simulation scenario: a design and run sizes. A numpy integer
    ``replicates`` is stored as an ``int``."""

    scenario_id: str
    config: DesignConfig
    replicates: int
    bootstrap: BootstrapSettings | None = None

    def __post_init__(self):
        replicates = as_integer(self.replicates)
        if replicates is None:
            raise ValueError(f"replicates must be an integer, got {self.replicates!r}")
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        object.__setattr__(self, "replicates", replicates)

    @property
    def hypothesis(self) -> str:
        """``"null"`` when ``config.theta2`` is zero, else ``"alternative"``."""
        return "null" if self.config.theta2 == 0.0 else "alternative"


@dataclass(frozen=True)
class Statistic:
    """A reported number with its Monte Carlo standard error; ``None`` when
    the statistic is not estimable from the run (e.g. no continuing
    replicates, or no test without bootstrap)."""

    value: float | None
    mc_se: float | None


@dataclass
class ReplicateArrays:
    """Per-replicate outputs of a run, a chunk or one replicate, replicates
    in index order on the last axis; the four per-method arrays are
    ``(6, n)``, rows in ``METHODS`` order."""

    z11: np.ndarray
    continued: np.ndarray
    failed: np.ndarray
    estimates: np.ndarray
    corrections: np.ndarray
    variances: np.ndarray  # NaN where the method has no test
    rejected: np.ndarray  # 1 / 0 / -1 (test unavailable)


@dataclass
class OperatingCharacteristics:
    scenario: Scenario
    n_continuing: int
    n_failed: int
    stats: dict[str, dict[str, Statistic]]  # method -> statistic -> value

    @property
    def n_replicates(self) -> int:
        return self.scenario.replicates

    @property
    def valid(self) -> bool:
        return self.n_failed <= MAX_FAILURE_FRACTION * self.n_replicates


class ReplicateError(RuntimeError):
    """An unexpected error while running replicates, with their key."""


def _scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def replicate_stream(
    master_seed: int, scenario: Scenario, index: int, *stream: int
) -> np.random.SeedSequence:
    """Seed stream keyed by ``(master seed, scenario id, index, *stream)``.

    A chunk ``c`` draws the noise of its trials from ``(c)``, their
    period-``s`` recruitment orders from ``(c, 2, s)`` and the resample
    counts of its bootstrap group ``g`` from ``(c, 1, g, bootstrap seed)``;
    a replicate ``i`` draws its cells (then, when replayed without a linear
    trend, its recruitment order) from ``(i, 0)``. No two of these keys
    coincide: they differ in length.
    """
    return np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(_scenario_key(scenario.scenario_id), index, *stream),
    )


# --- chunks -------------------------------------------------------------------


def _chunk_rows(scenario: Scenario, chunk: int) -> range:
    start = chunk * CHUNK
    return range(start, min(start + CHUNK, scenario.replicates))


def _rng(
    scenario: Scenario, master_seed: int, index: int, *stream: int
) -> np.random.Generator:
    """The generator of the key ``(master seed, scenario id, index, *stream)``."""
    return np.random.default_rng(replicate_stream(master_seed, scenario, index, *stream))


def _draw_chunk(scenario: Scenario, master_seed: int, chunk: int) -> TrialDraws:
    key = (scenario, master_seed, chunk)
    orders = None
    if scenario.config.trend.pattern is TrendPattern.LINEAR:
        orders = (_rng(*key, 2, 1), _rng(*key, 2, 2))
    return draw_trials(scenario.config, _rng(*key), len(_chunk_rows(scenario, chunk)), orders)


def replicate_trial(
    scenario: Scenario, master_seed: int, index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Patient rows of replicate ``index`` as the ``(arm, period, y)`` arrays
    of :func:`~nccsim.datagen.expand_trial`: the trial its analysis saw, and
    whose cells its bootstrap resampled."""
    _check_index(scenario, index)
    draws = _draw_chunk(scenario, master_seed, index // CHUNK)
    rng = _rng(scenario, master_seed, index, 0)
    return expand_trial(scenario.config, draws, index % CHUNK, rng)


def _group_cells(
    scenario: Scenario, master_seed: int, draws: TrialDraws, indices: list[int]
) -> tuple[np.ndarray, ...]:
    """The five cells of the replicates ``indices`` of one chunk, each an
    ``(n, k)`` array with one column per replicate; a replicate's cells come
    from its ``(i, 0)`` stream."""
    columns = [
        trial_cells(scenario.config, draws, index % CHUNK, _rng(scenario, master_seed, index, 0))
        for index in indices
    ]
    return tuple(np.column_stack(cell) for cell in zip(*columns))


def _keyed_error(scenario: Scenario, master_seed: int, which: str, exc: Exception):
    return ReplicateError(
        f"scenario {scenario.scenario_id!r}, {which}, master seed {master_seed}: "
        f"{type(exc).__name__}: {exc}"
    )


def _run_chunk(scenario: Scenario, master_seed: int, chunk: int) -> ReplicateArrays:
    """Draw and analyse one chunk into its rows of the record. Every
    continuing replicate is bootstrapped, in groups of ``max(1,
    ANALYSIS_ROWS // b)`` continuing rows: a group's replicates share their
    resample counts (:func:`~nccsim.adjusted.bootstrap_group`) and their
    accepted resamples are analysed with one :func:`resample_variances`
    call.

    A replicate whose bootstrap reaches the rejection limit is marked
    failed. Any other error raises :class:`ReplicateError`, naming the
    group's replicates when it comes from their cells or resampling and the
    chunk's range otherwise.
    """
    rows = _chunk_rows(scenario, chunk)
    chunk_key = f"replicates {rows.start}..{rows.stop - 1}"
    try:
        draws = _draw_chunk(scenario, master_seed, chunk)
        point = point_estimates(scenario.config, draws.means)
    except Exception as exc:
        raise _keyed_error(scenario, master_seed, chunk_key, exc) from exc
    failed = np.zeros(len(rows), dtype=bool)
    bootstrap = np.full((len(ADJUSTED_METHODS), len(rows)), np.nan)
    if scenario.bootstrap is not None:
        b, seed = scenario.bootstrap.b, scenario.bootstrap.seed
        continuing = np.flatnonzero(point.continued)
        size = max(1, ANALYSIS_ROWS // b)
        for group, start in enumerate(range(0, continuing.size, size)):
            block = continuing[start : start + size]
            indices = [rows[row] for row in block]
            try:
                cells = _group_cells(scenario, master_seed, draws, indices)
                rng = _rng(scenario, master_seed, chunk, 1, group, seed)
                resamples, lost = bootstrap_group(cells, scenario.config, b, rng)
            except Exception as exc:
                which = "replicates " + ", ".join(map(str, indices))
                raise _keyed_error(scenario, master_seed, which, exc) from exc
            failed[block] = lost
            if lost.all():
                continue
            try:
                bootstrap[:, block[~lost]] = resample_variances(scenario.config, resamples[~lost])
            except Exception as exc:
                raise _keyed_error(scenario, master_seed, chunk_key, exc) from exc
    variances = wald_variances(point.continued, scenario.config, bootstrap)
    return ReplicateArrays(
        z11=point.z11,
        continued=point.continued,
        failed=failed,
        estimates=point.estimates,
        corrections=point.corrections,
        variances=variances,
        rejected=rejections(point.estimates, variances, scenario.config.z_alpha),
    )


def _check_index(scenario: Scenario, index: int) -> None:
    if not 0 <= index < scenario.replicates:
        raise ValueError(
            f"replicate index {index} outside 0..{scenario.replicates - 1}"
        )


def run_replicate(
    scenario: Scenario, master_seed: int, replicate_index: int
) -> ReplicateArrays:
    """Replay one replicate: its one-row record, the row of its chunk's.

    The replay draws, analyses and bootstraps the whole chunk, so its
    numbers, a failed bootstrap included, are those of
    :func:`collect_replicates`, and it costs the chunk's bootstrap.
    """
    _check_index(scenario, replicate_index)
    chunk, row = divmod(replicate_index, CHUNK)
    arrays = _run_chunk(scenario, master_seed, chunk)
    return ReplicateArrays(
        **{f.name: getattr(arrays, f.name)[..., row : row + 1] for f in fields(arrays)}
    )


def collect_replicates(
    scenario: Scenario, master_seed: int, workers: int = 1
) -> ReplicateArrays:
    """Run all replicates chunk by chunk, optionally on a process pool.

    The pool runs whole chunks and is started only when there is more than
    one. The chunks are joined in index order, so the output is identical
    for any ``workers`` value. Only a bootstrap that reaches its rejection
    limit counts as a failed replicate; any other error raises
    :class:`ReplicateError`.
    """
    n_chunks = -(-scenario.replicates // CHUNK)
    args = (repeat(scenario), repeat(master_seed), range(n_chunks))
    if workers <= 1 or n_chunks == 1:
        parts = list(map(_run_chunk, *args))
    else:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            parts = list(pool.map(_run_chunk, *args))
    return ReplicateArrays(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts], axis=-1)
        for f in fields(ReplicateArrays)
    })


def _mean_statistics(values: np.ndarray) -> list[Statistic]:
    """Mean and MC SE of each row of an ``(m, k)`` block."""
    m, n = values.shape
    if n == 0:
        return [Statistic(None, None)] * m
    means = values.mean(axis=1).tolist()
    if n == 1:
        return [Statistic(value, None) for value in means]
    ses = (values.std(axis=1, ddof=1) / math.sqrt(n)).tolist()
    return [Statistic(value, se) for value, se in zip(means, ses)]


def _rmse_statistics(errors: np.ndarray) -> list[Statistic]:
    """Root mean square and MC SE of each row of an ``(m, k)`` block; no SE
    for a row whose rMSE is 0."""
    m, n = errors.shape
    if n == 0:
        return [Statistic(None, None)] * m
    sq = np.square(errors)
    rmses = np.sqrt(sq.mean(axis=1)).tolist()
    if n == 1:
        return [Statistic(rmse, None) for rmse in rmses]
    # delta method: se(rmse) = se(mse) / (2 * rmse)
    mse_ses = (sq.std(axis=1, ddof=1) / math.sqrt(n)).tolist()
    return [
        Statistic(rmse, se / (2.0 * rmse) if rmse > 0.0 else None)
        for rmse, se in zip(rmses, mse_ses)
    ]


def _rate_statistics(flags: np.ndarray) -> list[Statistic]:
    """Rate and binomial MC SE of each row of ``(m, k)`` 1 / 0 / -1 flags;
    ``None`` for a row where some test was unavailable (-1)."""
    m, n = flags.shape
    if n == 0:
        return [Statistic(None, None)] * m
    rates = flags.mean(axis=1)
    rates[(flags < 0).any(axis=1)] = np.nan
    return [
        Statistic(None, None) if math.isnan(p) else Statistic(p, math.sqrt(p * (1.0 - p) / n))
        for p in rates.tolist()
    ]


def summarize(scenario: Scenario, arrays: ReplicateArrays) -> OperatingCharacteristics:
    """Reduce per-replicate arrays to operating characteristics.

    Conditional statistics use only continuing replicates; failed replicates
    are excluded everywhere and counted. Each statistic is one fixed-order
    numpy reduction over the method axis, independent of how the replicates
    were computed. The masked blocks come from ``compress``, whose rows are
    contiguous, so each row is summed pairwise as a 1-D array would be
    (``[:, mask]`` rows are strided and summed naively).
    """
    ok = ~arrays.failed
    continued = arrays.continued.compress(ok)
    marginal = arrays.estimates.compress(ok, axis=1)
    marginal -= scenario.config.theta2
    conditional = marginal.compress(continued, axis=1)
    rejected = arrays.rejected.compress(ok, axis=1)
    continuation = _rate_statistics(continued[np.newaxis])[0]
    columns = (
        _mean_statistics(marginal),
        _mean_statistics(conditional),
        _rmse_statistics(marginal),
        _rmse_statistics(conditional),
        _rate_statistics(rejected),
        _rate_statistics(rejected.compress(continued, axis=1)),
        repeat(continuation),
    )
    stats = {m: dict(zip(STATISTICS, row)) for m, row in zip(METHODS, zip(*columns))}
    return OperatingCharacteristics(
        scenario=scenario,
        n_continuing=conditional.shape[1],
        n_failed=int(arrays.failed.sum()),
        stats=stats,
    )


def run_scenario(
    scenario: Scenario, master_seed: int, workers: int = 1
) -> OperatingCharacteristics:
    """Run one scenario end to end."""
    return summarize(scenario, collect_replicates(scenario, master_seed, workers))


# --- the one-factor-at-a-time scenario grid ---------------------------------

ALPHA1_GRID = (0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.65, 0.75, 0.95)
RATIO_GRID = ((1, 15), (1, 3), (1, 1), (2, 1), (4, 1), (7, 1), (10, 1))
LAMBDA_GRID = (-0.15, -0.075, 0.0, 0.075, 0.15)
ALTERNATIVE_THETA2 = 0.32


def _ratio_label(num: int, den: int) -> str:
    return f"{num}/{den}" if den > 1 else f"{num}"


def scenario_grid(
    replicates: int, bootstrap: BootstrapSettings | None = None
) -> list[Scenario]:
    """Expand the one-factor-at-a-time grid, per hypothesis.

    Families around the default design ``DesignConfig()``: futility bound,
    period-size ratio ``r`` (period-2 cells fixed), allocation ratio ``a``
    (control cells fixed) and linear trend strength. 28 scenarios per
    hypothesis, duplicates of the default point included, null block first.
    """
    base = DesignConfig().n01
    scenarios = []
    for hypothesis in HYPOTHESES:
        theta2 = 0.0 if hypothesis == "null" else ALTERNATIVE_THETA2

        def make(scenario_id: str, **overrides) -> Scenario:
            config = DesignConfig(theta2=theta2, **overrides)
            return Scenario(scenario_id, config, replicates, bootstrap)

        for alpha1 in ALPHA1_GRID:
            scenarios.append(make(f"{hypothesis}:alpha1={alpha1:g}", alpha1=alpha1))
        for num, den in RATIO_GRID:
            n_p1 = base * num // den
            scenarios.append(
                make(f"{hypothesis}:r={_ratio_label(num, den)}", n01=n_p1, n11=n_p1)
            )
        for num, den in RATIO_GRID:
            n_arm1 = base * num // den
            scenarios.append(
                make(f"{hypothesis}:a={_ratio_label(num, den)}", n11=n_arm1, n12=n_arm1)
            )
        for lam in LAMBDA_GRID:
            scenarios.append(
                make(
                    f"{hypothesis}:lambda={lam:g}",
                    trend=TimeTrendSpec(TrendPattern.LINEAR, lam),
                )
            )
    return scenarios

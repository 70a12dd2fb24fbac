import numpy as np
import pytest

from nccsim import CELLS, DesignConfig
from nccsim.adjusted import point_estimates
from oracle import TrialDataset


def make_dataset(cells: dict[tuple[int, int], list[float]]) -> TrialDataset:
    """Hand-build a trial from per-cell response lists.

    Rows are laid out period 1 first, then period 2, cells in arm order,
    which is a valid recruitment ordering for everything that does not
    depend on the within-period interleaving.
    """
    arm, period, y = [], [], []
    for s in (1, 2):
        for k in (0, 1, 2):
            for value in cells.get((k, s), []):
                arm.append(k)
                period.append(s)
                y.append(float(value))
    return TrialDataset(
        arm=np.asarray(arm, dtype=np.int64),
        period=np.asarray(period, dtype=np.int64),
        y=np.asarray(y, dtype=float),
    )


def cell_means(data: TrialDataset) -> np.ndarray:
    """The five cell means of ``data`` in ``CELLS`` order; NaN for an empty cell."""
    return np.array([data.cell(*cell).mean() if data.cell(*cell).size else np.nan for cell in CELLS])


def cell_counts(data: TrialDataset) -> tuple[int, ...]:
    return tuple(data.cell(*cell).size for cell in CELLS)


def analyse(data: TrialDataset, config: DesignConfig):
    """The engine's analysis of one trial: the core on ``data``'s cell means."""
    return point_estimates(config, cell_means(data)[None, :])


def default_config(**overrides) -> DesignConfig:
    return DesignConfig(**overrides)


@pytest.fixture
def config():
    return default_config()


def failing_group(real, fails=lambda position: True):
    """A stand-in for ``harness.bootstrap_group`` that runs ``real`` and
    then marks failed each trial for which ``fails(position)`` holds,
    ``position`` counting the trials of every call in order; ``calls``
    holds how many trials it has seen."""

    def group(cells, config, b, rng):
        resamples, failed = real(cells, config, b, rng)
        for j in range(failed.size):
            failed[j] |= fails(group.calls)
            group.calls += 1
        return resamples, failed

    group.calls = 0
    return group

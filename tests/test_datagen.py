import hashlib

import numpy as np
import pytest
from scipy import stats

from nccsim import (
    CELLS,
    TimeTrendSpec,
    TrendPattern,
)
from nccsim.datagen import draw_trials, expand_trial, trial_cells
from conftest import default_config
from oracle import simulate_trial

LINEAR = TimeTrendSpec(TrendPattern.LINEAR, 0.15)
STEPWISE = TimeTrendSpec(TrendPattern.STEPWISE, 0.15)

#: sha256 prefix of the rows of ``simulate_trial`` at seed 20240812 per trend
PINNED_STREAMS = {
    TrendPattern.NONE: "338d38d54134989d",
    TrendPattern.LINEAR: "da26ae53c80511c0",
    TrendPattern.STEPWISE: "9cf5ba5e68dfe7a6",
}


def drift(trend, **sizes):
    """Each patient's mean drift in recruitment order: the responses of a
    null trial with negligible noise."""
    return simulate_trial(default_config(sigma=1e-12, trend=trend, **sizes), 1)


class TestTimeTrend:
    def test_linear_endpoints(self):
        data = drift(LINEAR)
        assert data.y.size == 750
        assert data.y[0] == pytest.approx(0.0, abs=1e-9)
        assert data.y[-1] == pytest.approx(0.15)

    def test_linear_midpoint(self):
        data = drift(LINEAR, n22=151)
        assert data.y.size == 751
        assert data.y[375] == pytest.approx(0.075)

    def test_stepwise_by_period(self):
        data = drift(STEPWISE)
        assert np.all(np.abs(data.y[data.period == 1]) < 1e-9)
        assert data.y[data.period == 2] == pytest.approx(np.full(450, 0.15))

    def test_none_ignores_lambda(self):
        data = drift(TimeTrendSpec(TrendPattern.NONE, 0.9))
        assert np.all(np.abs(data.y) < 1e-9)


class TestSimulateTrial:
    @pytest.mark.parametrize("pattern", list(PINNED_STREAMS), ids=lambda p: p.value)
    def test_stream_is_pinned(self, pattern):
        # acceptance criteria 1, 5 and 10 are seeded on this stream: a change
        # to it would silently re-seed them
        data = simulate_trial(default_config(trend=TimeTrendSpec(pattern, 0.15)), 20240812)
        rows = data.arm.tobytes() + data.period.tobytes() + data.y.tobytes()
        assert hashlib.sha256(rows).hexdigest()[:16] == PINNED_STREAMS[pattern]

    def test_deterministic_given_seed(self):
        config = default_config(theta1=0.2, trend=LINEAR)
        a = simulate_trial(config, 123)
        b = simulate_trial(config, 123)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.arm, b.arm)
        for cell in CELLS:
            assert a.cell(*cell).mean() == b.cell(*cell).mean()

    def test_different_seeds_differ(self):
        config = default_config()
        assert not np.array_equal(simulate_trial(config, 1).y, simulate_trial(config, 2).y)

    def test_cell_counts_match_config(self):
        config = default_config(n01=10, n11=20, n02=30, n12=40, n22=50)
        data = simulate_trial(config, 7)
        for (k, s), n in zip(CELLS, (10, 20, 30, 40, 50)):
            assert data.cell(k, s).size == n
        assert data.y.size == config.total_planned

    def test_recruitment_order_periods(self):
        config = default_config(n01=5, n11=5, n02=5, n12=5, n22=5)
        data = simulate_trial(config, 7)
        assert np.all(np.diff(data.period) >= 0)
        assert (data.period == 1).sum() == 10

    def test_degenerate_noise_recovers_effect(self):
        config = default_config(sigma=1e-12, theta2=0.32)
        data = simulate_trial(config, 3)
        assert data.cell(2, 2).mean() - data.cell(0, 2).mean() == pytest.approx(0.32, abs=1e-9)

    def test_arrays_are_read_only(self):
        data = simulate_trial(default_config(), 5)
        with pytest.raises(ValueError):
            data.y[0] = 99.0

    def test_a_linear_trend_needs_the_recruitment_orders(self):
        config = default_config(trend=LINEAR)
        with pytest.raises(ValueError, match="a linear trend needs the generators of the recruitment orders"):
            draw_trials(config, np.random.default_rng(0), 3)

    def test_stepwise_shift_between_control_periods(self):
        # E[mean(0,2) - mean(0,1)] = lambda under a null design
        config = default_config(n01=40, n11=40, n02=40, n12=40, n22=40, trend=STEPWISE)
        reps = 4000
        diffs = np.empty(reps)
        for i in range(reps):
            data = simulate_trial(config, i)
            diffs[i] = data.cell(0, 2).mean() - data.cell(0, 1).mean()
        se = diffs.std(ddof=1) / np.sqrt(reps)
        assert abs(diffs.mean() - 0.15) < 3 * se

    def test_linear_trend_hits_all_arms_equally(self):
        # with near-zero noise the cell means are pure trend; period-2 arms
        # must receive the same drift in expectation
        config = default_config(
            n01=30, n11=30, n02=30, n12=30, n22=30, sigma=1e-9, trend=LINEAR
        )
        reps = 1500
        means = np.empty((reps, 3))
        for i in range(reps):
            data = simulate_trial(config, i)
            means[i] = [data.cell(0, 2).mean(), data.cell(1, 2).mean(), data.cell(2, 2).mean()]
        se = means.std(axis=0, ddof=1) / np.sqrt(reps)
        for j in (1, 2):
            tol = 3 * np.hypot(se[0], se[j])
            assert abs(means[:, 0].mean() - means[:, j].mean()) < tol

    def test_standardized_cell_means_pass_normality_gate(self):
        config = default_config(n01=20, n11=20, n02=20, n12=20, n22=20)
        reps = 10_000
        z11 = np.empty(reps)
        z22 = np.empty(reps)
        for i in range(reps):
            data = simulate_trial(config, i)
            z11[i] = data.cell(1, 1).mean() * np.sqrt(20)
            z22[i] = data.cell(2, 2).mean() * np.sqrt(20)
        for z in (z11, z22):
            _, p = stats.kstest(z, "norm")
            assert p > 1e-3


class TestTrialCells:
    @pytest.mark.parametrize("shared", [False, True], ids=["own_rng", "shared_rng"])
    @pytest.mark.parametrize("pattern", list(TrendPattern), ids=lambda p: p.value)
    def test_batch_is_the_one_row_calls(self, pattern, shared):
        # column j of a batch is bit for bit the one-row call on row j with
        # the generator of column j; one generator shared by every column
        # draws them in column order
        config = default_config(n01=40, n11=25, n02=30, n12=17, n22=9,
                                trend=TimeTrendSpec(pattern, 0.4))
        rng = np.random.default_rng(31)
        draws = draw_trials(config, rng, 6, (rng, rng))
        rows = np.array([5, 0, 2, 3])

        def generators():
            if shared:
                return [np.random.default_rng(9)] * rows.size
            return [np.random.default_rng([9, row]) for row in rows]

        batch = trial_cells(config, draws, rows, generators())
        assert [values.shape for values in batch] == [(n, rows.size) for n in config.cells]
        for j, (row, gen) in enumerate(zip(rows, generators())):
            single = trial_cells(config, draws, [row], [gen])
            for values, one in zip(batch, single, strict=True):
                assert values[:, j].tobytes() == one[:, 0].tobytes()

    def test_cells_follow_their_slots_drift(self):
        # with negligible noise a response is its cell mean plus its slot's
        # drift less the cell's mean drift, so within a cell the responses
        # less their slots' drifts are constant
        sizes = dict(n01=30, n11=20, n02=25, n12=15, n22=10)
        trend = TimeTrendSpec(TrendPattern.LINEAR, 50.0)
        config = default_config(sigma=1e-9, trend=trend, **sizes)
        slot_drift = drift(trend, **sizes).y
        rng = np.random.default_rng(17)
        draws = draw_trials(config, rng, 3, (rng, rng))
        for row in range(3):
            arm, period, y = expand_trial(config, draws, row, rng)
            residual = y - slot_drift
            for k, s in CELLS:
                assert np.ptp(residual[(arm == k) & (period == s)]) < 1e-8, (row, k, s)

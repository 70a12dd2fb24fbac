"""The batched replicate engine: cell-means draws, expansion to patient rows,
the vectorised analysis against independent oracles on the patient rows,
chunk seeding and errors."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import nccsim.adjusted as adjusted_module
import nccsim.harness as harness_module
from nccsim import (
    CELLS,
    CHUNK,
    BootstrapSettings,
    DesignConfig,
    METHODS,
    ReplicateError,
    Scenario,
    Theta1Method,
    TimeTrendSpec,
    TrendPattern,
    collect_replicates,
    method_label,
    replicate_stream,
    replicate_trial,
    run_replicate,
    run_scenario,
)
from nccsim.adjusted import ADJUSTED_METHODS, bootstrap_group, point_estimates
from nccsim.cli import emit_results
from nccsim.datagen import draw_trials, expand_trial
from conftest import analyse, default_config, failing_group
from oracle import TrialDataset, bootstrap_variances, ols_fit, simulate_trial

CELL_SIZE = st.integers(1, 12)


@st.composite
def designs(draw):
    pattern = draw(st.sampled_from(list(TrendPattern)))
    return DesignConfig(
        n01=draw(CELL_SIZE), n11=draw(CELL_SIZE), n02=draw(CELL_SIZE),
        n12=draw(CELL_SIZE), n22=draw(CELL_SIZE),
        alpha1=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98))),
        sigma=draw(st.floats(0.2, 3.0)),
        theta1=draw(st.floats(-1.0, 1.0)),
        theta2=draw(st.floats(-1.0, 1.0)),
        trend=TimeTrendSpec(pattern, draw(st.floats(-0.5, 0.5))),
    )


def _hazard(x):
    """Normal hazard ``pdf / sf`` from scipy's log density and log tail."""
    return np.exp(stats.norm.logpdf(x) - stats.norm.logsf(x))


def _without_arm1_period2(data: TrialDataset) -> TrialDataset:
    keep = ~((data.arm == 1) & (data.period == 2))
    return TrialDataset(data.arm[keep], data.period[keep], data.y[keep])


def _oracle(config: DesignConfig, data: TrialDataset, continued: bool):
    """Estimates and corrections of one trial, from its patient rows: OLS for
    the unadjusted estimate, numpy means for the interim statistic, the
    separate estimate and the plug-ins, and scipy's normal for the
    Rao-Blackwellized plug-in and the corrections."""
    y = {cell: data.y[(data.arm == cell[0]) & (data.period == cell[1])] for cell in CELLS}
    n = {cell: values.size for cell, values in y.items()}
    sigma = config.sigma
    se1 = sigma * math.sqrt(1 / n[1, 1] + 1 / n[0, 1])
    z11 = (y[1, 1].mean() - y[0, 1].mean()) / se1
    separate = y[2, 2].mean() - y[0, 2].mean()
    estimates = {"separate": separate}
    corrections = {"unadjusted": 0.0, "separate": 0.0}
    if not continued:
        estimates["unadjusted"] = ols_fit(_without_arm1_period2(data)).theta2_coef
        for method in Theta1Method:
            estimates[method_label(method)] = separate
            corrections[method_label(method)] = 0.0
        return z11, estimates, corrections

    unadjusted = ols_fit(data).theta2_coef
    estimates["unadjusted"] = unadjusted
    pooled = data.y[data.arm == 1].mean() - data.y[data.arm == 0].mean()
    c1 = stats.norm.isf(config.alpha1)
    i1 = 1 / se1**2
    i2 = 1 / (sigma**2 * (1 / (n[1, 1] + n[1, 2]) + 1 / (n[0, 1] + n[0, 2])))
    u = (c1 - pooled * math.sqrt(i1)) * math.sqrt(i2 / (i2 - i1))
    plug_ins = {
        Theta1Method.POOLED: pooled,
        Theta1Method.PERIOD1: y[1, 1].mean() - y[0, 1].mean(),
        Theta1Method.PERIOD2: y[1, 2].mean() - y[0, 2].mean(),
        Theta1Method.CUMVUE: pooled - math.sqrt(i1 / (i2 * (i2 - i1))) * _hazard(u),
    }
    inv = 1 / n[0, 1] + 1 / n[0, 2] + 1 / n[1, 1] + 1 / n[1, 2]
    rho = (1 / n[0, 2]) / inv
    for method, theta1_hat in plug_ins.items():
        correction = rho * se1 * _hazard(c1 - theta1_hat / se1)
        estimates[method_label(method)] = unadjusted - correction
        corrections[method_label(method)] = correction
    return z11, estimates, corrections


class TestBatchedCoreMatchesScalarPath:
    """The scalar path is :func:`_oracle`, which shares no code with the core."""

    @settings(max_examples=150, deadline=None)
    @given(config=designs(), seed=st.integers(0, 2**32 - 1))
    def test_every_row_matches_the_scalar_analysis_of_its_expansion(self, config, seed):
        rng = np.random.default_rng(seed)
        draws = draw_trials(config, rng, 4, (rng, rng))
        point = point_estimates(config, draws.means)
        for row in range(4):
            data = TrialDataset(*expand_trial(config, draws, row, rng))
            for i, cell in enumerate(CELLS):
                assert abs(data.cell(*cell).mean() - draws.means[row, i]) <= 1e-12

            continued = bool(point.continued[row])
            z11, estimates, corrections = _oracle(config, data, continued)
            if abs(point.z11[row] - config.c1) > 1e-9:
                assert (z11 >= config.c1) == continued
            assert abs(z11 - point.z11[row]) <= 1e-10
            for m, estimate, correction in zip(
                METHODS, point.estimates[:, row], point.corrections[:, row], strict=True
            ):
                assert abs(estimates[m] - estimate) <= 1e-10, m
                assert abs(corrections[m] - correction) <= 1e-10, m


class TestCellMeansDraw:
    def test_standardized_means_are_standard_normal(self):
        config = default_config(
            n01=20, n11=30, n02=40, n12=10, n22=25, theta1=0.3, theta2=-0.2,
            sigma=2.0, trend=TimeTrendSpec(TrendPattern.STEPWISE, 0.15),
        )
        means = draw_trials(config, np.random.default_rng(5), 20_000).means
        centre = np.array([0.0, 0.3, 0.15, 0.45, -0.05])
        z = (means - centre) / (2.0 / np.sqrt([20, 30, 40, 10, 25]))
        for column in z.T:
            assert stats.kstest(column, "norm").pvalue > 1e-3

    def test_linear_drift_means_match_their_expectation(self):
        # with negligible noise a cell mean is its mean drift; in expectation
        # every cell of a period gets the period's mean slot drift
        config = default_config(
            n01=20, n11=40, n02=30, n12=15, n22=30, sigma=1e-9,
            trend=TimeTrendSpec(TrendPattern.LINEAR, 0.15),
        )
        rng = np.random.default_rng(8)
        means = draw_trials(config, rng, 4000, (rng, rng)).means
        total, p1 = config.total_planned, 60
        expected = 0.15 / (total - 1) * np.array(
            [(p1 - 1) / 2] * 2 + [(p1 + total - 1) / 2] * 3
        )
        se = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
        assert np.all(np.abs(means.mean(axis=0) - expected) < 4 * se)


def _scenario(replicates, bootstrap=None, scenario_id="engine", **overrides):
    config = default_config(**overrides)
    return Scenario(scenario_id, config, replicates, bootstrap)


def _assert_same_arrays(a, b, rows=slice(None)):
    """``a`` equals replicates ``rows`` of ``b`` in every array, NaN included."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)[..., rows]
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), f.name


class TestChunks:
    SCENARIO = _scenario(
        2 * CHUNK + 37,
        BootstrapSettings(b=5, seed=2),
        n01=30, n11=30, n02=30, n12=30, n22=30,
        trend=TimeTrendSpec(TrendPattern.LINEAR, 0.15),
    )

    @pytest.fixture(scope="class")
    def serial(self):
        return collect_replicates(self.SCENARIO, 71, workers=1)

    def test_worker_count_does_not_change_arrays(self, serial):
        _assert_same_arrays(serial, collect_replicates(self.SCENARIO, 71, workers=2))

    @pytest.mark.parametrize("index", [0, CHUNK - 1, CHUNK, 2 * CHUNK + 36])
    def test_run_replicate_replays_exactly(self, serial, index):
        result = run_replicate(self.SCENARIO, 71, index)
        _assert_same_arrays(result, serial, slice(index, index + 1))

    def test_replicate_index_is_checked(self):
        with pytest.raises(ValueError, match="replicate index"):
            run_replicate(self.SCENARIO, 71, self.SCENARIO.replicates)

    def test_replicate_trial_is_what_the_analysis_saw(self):
        scenario = _scenario(10)
        for index in range(10):
            result = run_replicate(scenario, 3, index)
            data = TrialDataset(*replicate_trial(scenario, 3, index))
            point = analyse(data, scenario.config)
            assert point.continued[0] == result.continued[0]
            row = METHODS.index("separate")
            assert point.estimates[row, 0] == pytest.approx(result.estimates[row, 0], abs=1e-12)

    @pytest.mark.parametrize("pattern", list(TrendPattern), ids=lambda p: p.value)
    def test_a_replicate_does_not_depend_on_the_count(self, pattern):
        trend = TimeTrendSpec(pattern, 0.15)
        short = collect_replicates(_scenario(40, trend=trend), 5)
        for count in (41, CHUNK + 3):
            long = collect_replicates(_scenario(count, trend=trend), 5)
            _assert_same_arrays(short, long, slice(0, 40))


class TestChunkBootstrap:
    """The bootstrap of a chunk's continuing replicates: one group of
    per-replicate resamples, analysed in slices of at most
    ``ANALYSIS_ROWS`` rows."""

    @pytest.mark.parametrize(("pattern", "b"), [
        pytest.param(pattern, b, id=pattern.value + ("" if b == 40 else f"-b{b}"))
        for b in (40, 1000) for pattern in TrendPattern
    ])
    def test_variances_are_the_bootstrap_of_the_replicate_trial(self, pattern, b):
        # the chunk's continuing replicates are one group, whose resamples
        # come from the (chunk 0, 1, 0, bootstrap seed 3) key; at b = 1000
        # they span several analysis slices
        scenario = _scenario(
            30, BootstrapSettings(b=b, seed=3), n01=25, n11=25, n02=25, n12=25, n22=25,
            trend=TimeTrendSpec(pattern, 0.15),
        )
        arrays = collect_replicates(scenario, 17)
        continuing = np.flatnonzero(arrays.continued)
        assert continuing.size > max(5, adjusted_module.ANALYSIS_ROWS // 1000)
        assert not arrays.failed.any()
        datasets = [TrialDataset(*replicate_trial(scenario, 17, int(i))) for i in continuing]
        cells = tuple(
            np.column_stack([data.cell(*cell) for data in datasets]) for cell in CELLS
        )
        rng = np.random.default_rng(replicate_stream(17, scenario, 0, 1, 0, 3))
        resamples, failed = bootstrap_group(cells, scenario.config, b, rng)
        assert not failed.any()
        # each replicate's variances over its own b estimates, with no slicing
        expected = np.column_stack([
            np.var(point_estimates(scenario.config, own).estimates[2:], axis=-1)
            for own in resamples
        ])
        for label, row in zip(ADJUSTED_METHODS, expected):
            method = METHODS.index(label)
            assert arrays.variances[method, continuing].tobytes() == row.tobytes(), label
            for index in continuing[:3]:
                replayed = run_replicate(scenario, 17, int(index))
                assert replayed.variances[method, 0] == arrays.variances[method, index], label

    @pytest.mark.parametrize("pattern", list(TrendPattern), ids=lambda p: p.value)
    def test_replicate_trial_holds_the_resampled_cells(self, pattern, monkeypatch):
        resampled = []
        real = harness_module.bootstrap_group

        def spy(cells, *args):
            resampled.extend(zip(*(values.T for values in cells)))
            return real(cells, *args)

        monkeypatch.setattr(harness_module, "bootstrap_group", spy)
        scenario = _scenario(
            CHUNK + 20, BootstrapSettings(b=5), alpha1=1.0,
            n01=12, n11=9, n02=10, n12=7, n22=11, trend=TimeTrendSpec(pattern, 0.15),
        )
        for index, chunk_size in ((3, CHUNK), (CHUNK + 11, 20)):
            resampled.clear()
            run_replicate(scenario, 19, index)
            data = TrialDataset(*replicate_trial(scenario, 19, index))
            # a replay bootstraps its whole chunk; every row continues at
            # alpha1 = 1, so the k-th trial resampled is row k
            assert len(resampled) == chunk_size
            for values, cell in zip(resampled[index % CHUNK], CELLS, strict=True):
                assert data.cell(*cell).tobytes() == values.tobytes(), cell

    def test_a_bootstrap_run_builds_no_patient_rows(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("patient rows were built")

        monkeypatch.setattr(harness_module, "expand_trial", forbidden)
        for pattern in TrendPattern:
            scenario = _scenario(40, BootstrapSettings(b=5), alpha1=0.9,
                                 trend=TimeTrendSpec(pattern, 0.15))
            arrays = collect_replicates(scenario, 23)
            assert arrays.continued.any() and not arrays.failed.any()
            assert np.all(np.isfinite(arrays.variances[METHODS.index("mae_cumvue")]))

    def test_no_analysis_call_exceeds_the_row_cap(self, monkeypatch):
        rows = []
        real = adjusted_module.point_estimates

        def spy(config, means):
            rows.append(means.shape[0])
            return real(config, means)

        monkeypatch.setattr(adjusted_module, "point_estimates", spy)
        scenario = _scenario(CHUNK, BootstrapSettings(b=1000), alpha1=0.95,
                             n01=20, n11=20, n02=20, n12=20, n22=20)
        arrays = collect_replicates(scenario, 29)
        n_continuing = int(arrays.continued.sum())
        assert n_continuing > 400 and not arrays.failed.any()
        assert max(rows) <= adjusted_module.ANALYSIS_ROWS
        assert sum(rows) == 1000 * n_continuing
        # the slices are as large as the cap allows
        assert len(rows) == -(-n_continuing // (adjusted_module.ANALYSIS_ROWS // 1000))

    @pytest.mark.parametrize("b", [5, 1000])
    def test_a_failure_inside_a_group_leaves_the_others_unchanged(self, b, monkeypatch):
        # b = 5 analyses the chunk in one slice, b = 1000 in slices of 8 replicates
        scenario = _scenario(CHUNK, BootstrapSettings(b=b), alpha1=0.5,
                             n01=10, n11=10, n02=10, n12=10, n22=10)
        clean = collect_replicates(scenario, 31)
        every_third_fails = failing_group(
            harness_module.bootstrap_group, lambda position: position % 3 == 0
        )
        monkeypatch.setattr(harness_module, "bootstrap_group", every_third_fails)
        arrays = collect_replicates(scenario, 31)
        continuing = np.flatnonzero(clean.continued)
        assert continuing.size > 200 and not clean.failed.any()
        injected = continuing[::3]
        assert np.array_equal(np.flatnonzero(arrays.failed), injected)
        others = np.setdiff1d(np.arange(CHUNK), injected)
        for label in ADJUSTED_METHODS:
            row = METHODS.index(label)
            assert np.all(np.isnan(arrays.variances[row, injected])), label
            assert arrays.variances[row, others].tobytes() == (
                clean.variances[row, others].tobytes()
            ), label


class TestFailures:
    def test_unexpected_error_propagates_with_its_key(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        scenario = _scenario(50, BootstrapSettings(b=5), scenario_id="broken")
        assert collect_replicates(scenario, 13).continued.any()
        monkeypatch.setattr(harness_module, "bootstrap_group", broken)
        with pytest.raises(RuntimeError) as info:
            run_scenario(scenario, 13)
        assert str(info.value) == (
            "scenario 'broken', replicates 0..49, master seed 13: RuntimeError: injected"
        )
        assert isinstance(info.value, ReplicateError)
        assert str(info.value.__cause__) == "injected"

    def test_error_outside_the_bootstrap_names_the_chunk(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness_module, "point_estimates", broken)
        with pytest.raises(ReplicateError, match=r"replicates 0\.\.19, master seed 13"):
            run_scenario(_scenario(20), 13)

    def test_replay_of_a_failed_replicate_marks_it_failed(self, monkeypatch):
        monkeypatch.setattr(
            harness_module, "bootstrap_group", failing_group(harness_module.bootstrap_group)
        )
        scenario = _scenario(50, BootstrapSettings(b=5), alpha1=1.0)
        replayed = run_replicate(scenario, 13, 7)
        assert replayed.failed[0]
        for label in ADJUSTED_METHODS:
            row = METHODS.index(label)
            assert np.isnan(replayed.variances[row, 0]), label
            assert replayed.rejected[row, 0] == -1, label
        _assert_same_arrays(replayed, collect_replicates(scenario, 13), slice(7, 8))

    def test_error_in_the_resample_analysis_names_the_chunk(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness_module, "resample_variances", broken)
        # alpha1 = 1 continues every replicate
        scenario = _scenario(CHUNK + 50, BootstrapSettings(b=5), scenario_id="broken",
                             alpha1=1.0)
        with pytest.raises(ReplicateError) as info:
            run_scenario(scenario, 13)
        assert str(info.value) == (
            f"scenario 'broken', replicates 0..{CHUNK - 1}, master seed 13: "
            "RuntimeError: injected"
        )
        with pytest.raises(ReplicateError, match=rf"replicates {CHUNK}\.\.{CHUNK + 49}, "):
            run_replicate(scenario, 13, CHUNK + 7)

    @pytest.mark.parametrize("name", ["wald_variances", "rejections"])
    def test_error_in_the_wald_step_names_the_chunk(self, monkeypatch, name):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(harness_module, name, broken)
        scenario = _scenario(CHUNK + 20, scenario_id="broken")
        with pytest.raises(ReplicateError) as info:
            run_scenario(scenario, 13)
        assert str(info.value) == (
            "scenario 'broken', replicates 0..511, master seed 13: RuntimeError: injected"
        )
        assert str(info.value.__cause__) == "injected"
        with pytest.raises(ReplicateError, match=rf"replicates {CHUNK}\.\.{CHUNK + 19}, "):
            run_replicate(scenario, 13, CHUNK + 7)


class TestScenarioChecks:
    @pytest.mark.parametrize("seed", [np.random.SeedSequence(3), 1.7, -1, True])
    def test_bootstrap_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="bootstrap seed"):
            _scenario(20, BootstrapSettings(b=20, seed=seed))

    @pytest.mark.parametrize("replicates", [2.5, 3.0, True, "3"])
    def test_replicates_must_be_an_integer(self, replicates):
        with pytest.raises(ValueError, match="replicates must be an integer"):
            _scenario(replicates)

    def test_integer_replicate_counts_are_accepted(self):
        assert run_scenario(_scenario(np.int64(3)), 5).n_replicates == 3

    def test_numpy_replicate_count_writes_the_same_results(self, tmp_path):
        outputs = []
        for replicates in (20, np.int64(20)):
            scenario = _scenario(replicates)
            assert type(scenario.replicates) is int
            out = tmp_path / f"run{len(outputs)}"
            emit_results([run_scenario(scenario, 5)], out, 5)
            outputs.append([(out / name).read_bytes() for name in ("results.csv", "results.json")])
        assert outputs[0] == outputs[1]

    def test_integer_bootstrap_seeds_are_accepted(self):
        _scenario(20, BootstrapSettings(b=20, seed=3))
        _scenario(20, BootstrapSettings(b=20, seed=np.int64(3)))

    def test_direct_bootstrap_keeps_accepting_any_numpy_seed(self):
        config = default_config(n01=10, n11=10, n02=10, n12=10, n22=10, alpha1=1.0)
        data = simulate_trial(config, 1)
        assert analyse(data, config).continued[0]
        seed = np.random.SeedSequence(3)
        assert bootstrap_variances(data, config, 20, seed)["mae_cumvue"] > 0

    def test_arm1_needs_period2_patients(self):
        with pytest.raises(ValueError, match="n12"):
            _scenario(20, n12=0)

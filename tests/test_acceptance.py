"""Acceptance suite: every release gate at its stated tolerance.

One test per criterion; each prints a PASS line with the measured numbers
(run pytest with ``-s`` or check the captured output). Runs are seeded, so
the outcomes are reproducible bit for bit. Heavy scenarios are shared
between criteria through module-scoped fixtures.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from nccsim import (
    BootstrapSettings,
    Scenario,
    Theta1Method,
    TimeTrendSpec,
    TrendPattern,
    bias_inputs,
    collect_replicates,
    conditional_bias,
    marginal_bias,
    model_based_from_means,
    replicate_stream,
    run_scenario,
    summarize,
)
from nccsim.adjusted import METHODS, point_estimates
from nccsim.cli import main as cli_main
from nccsim.theta1 import plug_ins
from conftest import cell_counts, cell_means, default_config, make_dataset
from oracle import bootstrap_variances, ols_fit, simulate_trial

MASTER_SEED = 20250808
WORKERS = min(2, os.cpu_count() or 1)

# frozen reference values (high-precision quadrature/erf oracle)
MARGINAL_BIAS_DEFAULT = 0.011516471649044516
CONDITIONAL_BIAS_DEFAULT = 0.023032943298089032
SEPARATE_POWER_DEFAULT = 0.7914082633524852
Z_ALPHA = 1.9599639845400542


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def _scenario(scenario_id, replicates, bootstrap=None, **overrides) -> Scenario:
    config = default_config(**overrides)
    return Scenario(
        scenario_id=scenario_id,
        config=config,
        replicates=replicates,
        bootstrap=bootstrap,
    )


@pytest.fixture(scope="module")
def null_run():
    """Default null scenario, no bootstrap, R = 1e5 (criterion 2)."""
    scenario = _scenario("acc:null-default", 100_000)
    start = time.monotonic()
    arrays = collect_replicates(scenario, MASTER_SEED, workers=WORKERS)
    elapsed = time.monotonic() - start
    return scenario, arrays, summarize(scenario, arrays), elapsed


@pytest.fixture(scope="module")
def null_boot_run():
    """Default null scenario with bootstrap tests, R = 1e4, B = 200."""
    scenario = _scenario("acc:null-boot", 10_000, BootstrapSettings(b=200, seed=0))
    start = time.monotonic()
    arrays = collect_replicates(scenario, MASTER_SEED, workers=WORKERS)
    elapsed = time.monotonic() - start
    return scenario, arrays, summarize(scenario, arrays), elapsed


@pytest.fixture(scope="module")
def alt_boot_run():
    """Default alternative scenario, R = 1e4, B = 200."""
    scenario = _scenario(
        "acc:alt-boot", 10_000, BootstrapSettings(b=200, seed=0), theta2=0.32
    )
    arrays = collect_replicates(scenario, MASTER_SEED, workers=WORKERS)
    return scenario, arrays, summarize(scenario, arrays)


def test_criterion_01_closed_form_matches_least_squares():
    """|model-based - OLS| <= 1e-9 over 1000 random full-rank trials, < 5 s."""
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        sizes = rng.integers(1, 12, size=5)
        cells = {
            cell: rng.normal(loc=rng.normal(), scale=2.0, size=n)
            for cell, n in zip(((0, 1), (1, 1), (0, 2), (1, 2), (2, 2)), sizes)
        }
        data = make_dataset(cells)
        closed_form = model_based_from_means(*cell_means(data), *cell_counts(data)[:4])
        gap = abs(ols_fit(data).theta2_coef - closed_form)
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report("1", f"max |OLS - closed form| = {worst:.2e} over 1000 trials in {elapsed:.1f}s")


def test_criterion_02_analytic_vs_monte_carlo_bias(null_run):
    """Unadjusted marginal and conditional bias match the closed forms
    within 3 MC standard errors at R = 1e5; runtime < 1 min."""
    scenario, _, oc, elapsed = null_run
    inputs = bias_inputs(scenario.config)
    assert marginal_bias(inputs) == pytest.approx(MARGINAL_BIAS_DEFAULT, abs=1e-12)
    assert conditional_bias(inputs) == pytest.approx(CONDITIONAL_BIAS_DEFAULT, abs=1e-12)

    marg = oc.stats["unadjusted"]["marginal_bias"]
    cond = oc.stats["unadjusted"]["conditional_bias"]
    assert abs(marg.value - MARGINAL_BIAS_DEFAULT) <= 3 * marg.mc_se
    assert abs(cond.value - CONDITIONAL_BIAS_DEFAULT) <= 3 * cond.mc_se
    assert elapsed < 60.0
    _report(
        "2",
        f"marginal {marg.value:.5f} vs {MARGINAL_BIAS_DEFAULT:.5f} (se {marg.mc_se:.5f}); "
        f"conditional {cond.value:.5f} vs {CONDITIONAL_BIAS_DEFAULT:.5f} (se {cond.mc_se:.5f}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_03_stopping_calibration():
    """Continuation frequency equals alpha1 within 3 binomial SEs, R = 1e5."""
    details = []
    for alpha1 in (0.1, 0.5, 0.95):
        scenario = _scenario(f"acc:cal-{alpha1:g}", 100_000, alpha1=alpha1)
        oc = run_scenario(scenario, MASTER_SEED, workers=WORKERS)
        stat = oc.stats["unadjusted"]["continuation_frequency"]
        target_se = math.sqrt(alpha1 * (1 - alpha1) / 100_000)
        assert abs(stat.value - alpha1) <= 3 * target_se, alpha1
        details.append(f"alpha1={alpha1:g}: {stat.value:.4f}")
    _report("3", "; ".join(details))


def test_criterion_04_edge_bounds_are_marginally_unbiased():
    """alpha1 in {0, 1}: unadjusted marginal bias is 0 within 3 SEs, R = 1e5."""
    details = []
    for alpha1 in (0.0, 1.0):
        scenario = _scenario(f"acc:edge-{alpha1:g}", 100_000, alpha1=alpha1)
        oc = run_scenario(scenario, MASTER_SEED, workers=WORKERS)
        stat = oc.stats["unadjusted"]["marginal_bias"]
        assert abs(stat.value) <= 3 * stat.mc_se, alpha1
        expected_cont = 0.0 if alpha1 == 0.0 else 1.0
        assert oc.stats["unadjusted"]["continuation_frequency"].value == expected_cont
        details.append(f"alpha1={alpha1:g}: bias {stat.value:+.5f} (se {stat.mc_se:.5f})")
    _report("4", "; ".join(details))


def _theta1_chunk(theta1: float, start: int, stop: int):
    config = default_config(theta1=theta1)
    scenario = _scenario(f"acc:theta1-{theta1:g}", 100_000, theta1=theta1)
    means = np.array([
        cell_means(simulate_trial(config, replicate_stream(MASTER_SEED, scenario, rep, 0)))
        for rep in range(start, stop)
    ])
    continued = point_estimates(config, means).continued
    theta1_hats = plug_ins(*means[continued, :4].T, config)
    out = np.full((stop - start, 5), np.nan)
    out[continued, 0] = 1.0
    out[continued, 1] = theta1_hats[Theta1Method.POOLED]
    out[continued, 2] = theta1_hats[Theta1Method.PERIOD1]
    out[continued, 3] = theta1_hats[Theta1Method.PERIOD2]
    out[continued, 4] = theta1_hats[Theta1Method.CUMVUE]
    return out


def _run_theta1_study(theta1: float, replicates: int = 100_000) -> dict[str, np.ndarray]:
    ctx = multiprocessing.get_context("fork")
    bounds = np.linspace(0, replicates, WORKERS * 2 + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        parts = [
            pool.submit(_theta1_chunk, theta1, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        table = np.vstack([p.result() for p in parts])
    cont = table[:, 0] == 1.0
    names = ("pooled", "period1", "period2", "cumvue")
    return {name: table[cont, i + 1] for i, name in enumerate(names)}


def test_criterion_05_conditional_unbiasedness_of_theta1_plug_ins():
    """Conditional on continuing: period2/cumvue unbiased within 3 SEs at
    theta1 in {0, 0.2}; pooled/period1 biased upward by > 3 SEs at 0."""
    details = []
    for theta1 in (0.0, 0.2):
        sample = _run_theta1_study(theta1)
        for name in ("period2", "cumvue"):
            values = sample[name]
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - theta1) <= 3 * se, (theta1, name)
            details.append(f"{name}@{theta1:g}: {values.mean() - theta1:+.5f}")
        if theta1 == 0.0:
            for name in ("pooled", "period1"):
                values = sample[name]
                se = values.std(ddof=1) / math.sqrt(values.size)
                assert values.mean() > 3 * se, name
                details.append(f"{name}@0: {values.mean():+.5f} (>3se)")
    _report("5", "; ".join(details))


def test_criterion_06_type_one_error(null_boot_run):
    """Adjusted (cumvue) conditional type I error inside the 95% binomial CI
    of 0.025; unadjusted above the CI's upper bound. R = 1e4, B = 200."""
    _, _, oc, elapsed = null_boot_run
    n_cont = oc.n_continuing
    half_width = 1.959963984540054 * math.sqrt(0.025 * 0.975 / n_cont)
    lo, hi = 0.025 - half_width, 0.025 + half_width
    adjusted = oc.stats["mae_cumvue"]["conditional_rejection_rate"].value
    unadjusted = oc.stats["unadjusted"]["conditional_rejection_rate"].value
    assert lo <= adjusted <= hi
    assert unadjusted > hi
    assert elapsed < 1800.0
    _report(
        "6",
        f"mae_cumvue {adjusted:.4f} in [{lo:.4f}, {hi:.4f}]; "
        f"unadjusted {unadjusted:.4f} above; {elapsed:.0f}s",
    )


def test_criterion_07_power(alt_boot_run):
    """Separate conditional power = 0.791 +/- 0.02; cumvue-adjusted power
    exceeds it by more than 3 paired SEs."""
    _, arrays, oc = alt_boot_run
    separate = oc.stats["separate"]["conditional_rejection_rate"].value
    assert abs(separate - SEPARATE_POWER_DEFAULT) <= 0.02

    cont = arrays.continued & ~arrays.failed
    rej_mae = arrays.rejected[METHODS.index("mae_cumvue"), cont].astype(float)
    rej_sep = arrays.rejected[METHODS.index("separate"), cont].astype(float)
    assert np.all(rej_mae >= 0) and np.all(rej_sep >= 0)
    paired = rej_mae - rej_sep
    se = paired.std(ddof=1) / math.sqrt(paired.size)
    assert paired.mean() > 3 * se
    _report(
        "7",
        f"separate {separate:.4f} (target {SEPARATE_POWER_DEFAULT:.4f}); "
        f"mae_cumvue gain {paired.mean():+.4f} (se {se:.4f})",
    )


def test_criterion_08_rmse_ordering(null_boot_run, alt_boot_run):
    """Every adjusted variant's conditional rMSE beats the separate analysis
    by more than 3 paired SEs, in the null and alternative default runs."""
    details = []
    for label, (scenario, arrays, oc, *_rest) in (
        ("null", null_boot_run),
        ("alt", alt_boot_run + (None,)),
    ):
        theta2 = scenario.config.theta2
        cont = arrays.continued & ~arrays.failed
        sep_sq = (arrays.estimates[METHODS.index("separate"), cont] - theta2) ** 2
        for method in ("mae_pooled", "mae_period1", "mae_period2", "mae_cumvue"):
            mae_sq = (arrays.estimates[METHODS.index(method), cont] - theta2) ** 2
            gap = sep_sq - mae_sq
            se = gap.std(ddof=1) / math.sqrt(gap.size)
            assert gap.mean() > 3 * se, (label, method)
            rmse_m = oc.stats[method]["conditional_rmse"].value
            rmse_s = oc.stats["separate"]["conditional_rmse"].value
            assert rmse_m < rmse_s, (label, method)
        details.append(
            f"{label}: separate rmse {oc.stats['separate']['conditional_rmse'].value:.4f} "
            f"> every adjusted variant"
        )
    _report("8", "; ".join(details))


def test_criterion_09_trend_invariance():
    """Conditional bias and type I error of unadjusted and cumvue-adjusted
    agree across trend patterns and strengths within 3 SEs of difference."""
    runs = {}
    baseline = _scenario("acc:lam-none", 10_000, BootstrapSettings(b=200, seed=0))
    runs[("none", 0.0)] = run_scenario(baseline, MASTER_SEED, workers=WORKERS)
    for pattern in (TrendPattern.LINEAR, TrendPattern.STEPWISE):
        for lam in (-0.15, 0.15):
            scenario = _scenario(
                f"acc:lam-{pattern.value}-{lam:g}",
                10_000,
                BootstrapSettings(b=200, seed=0),
                trend=TimeTrendSpec(pattern, lam),
            )
            runs[(pattern.value, lam)] = run_scenario(scenario, MASTER_SEED, workers=WORKERS)

    reference = runs[("none", 0.0)]
    checked = 0
    for method in ("unadjusted", "mae_cumvue"):
        for name in ("conditional_bias", "conditional_rejection_rate"):
            ref = reference.stats[method][name]
            for key, oc in runs.items():
                if key == ("none", 0.0):
                    continue
                other = oc.stats[method][name]
                tol = 3 * math.hypot(ref.mc_se, other.mc_se)
                assert abs(other.value - ref.value) <= tol, (method, name, key)
                checked += 1
    _report("9", f"{checked} pattern/strength comparisons within 3 SEs of the no-trend run")


def _bootstrap_sd_chunk(start: int, stop: int):
    config = default_config()
    scenario = _scenario("acc:boot-sd", 10_000)
    out = np.full((stop - start, 2), np.nan)
    for offset, rep in enumerate(range(start, stop)):
        data = simulate_trial(config, replicate_stream(MASTER_SEED, scenario, rep, 0))
        point = point_estimates(config, cell_means(data)[None, :])
        if not point.continued[0]:
            continue
        out[offset, 0] = point.estimates[METHODS.index("mae_cumvue"), 0]
        seed = np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=(7, rep))
        variance = bootstrap_variances(data, config, 1000, seed)["mae_cumvue"]
        out[offset, 1] = math.sqrt(variance)
    return out


def test_criterion_10_bootstrap_validity():
    """Mean bootstrap SD (B = 1000) matches the cross-replicate conditional
    SD of the adjusted estimate within 10% over 1e4 outer replicates."""
    ctx = multiprocessing.get_context("fork")
    bounds = np.linspace(0, 10_000, WORKERS * 4 + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        parts = [
            pool.submit(_bootstrap_sd_chunk, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        table = np.vstack([p.result() for p in parts])
    cont = ~np.isnan(table[:, 0])
    estimates = table[cont, 0]
    boot_sd = table[cont, 1]
    empirical = estimates.std(ddof=1)
    relative_gap = abs(boot_sd.mean() - empirical) / empirical
    assert relative_gap <= 0.10
    _report(
        "10",
        f"mean bootstrap SD {boot_sd.mean():.5f} vs empirical {empirical:.5f} "
        f"({relative_gap:.1%} gap, {cont.sum()} continuing)",
    )


def test_criterion_11_worker_count_determinism(tmp_path):
    """A representative run repeated with another worker count produces
    byte-identical result files."""
    plan = tmp_path / "plan.txt"
    plan.write_text("replicates: 2000\nbootstrap_b: 100\n\n[scenario]\nid: det\nalpha1: 0.5\n")
    outputs = {}
    for workers in (1, 2, 1):
        out = tmp_path / f"w{workers}-{len(outputs)}"
        code = cli_main(
            [
                "simulate",
                "--config", str(plan),
                "--seed", str(MASTER_SEED),
                "--out", str(out),
                "--workers", str(workers),
            ]
        )
        assert code == 0
        outputs[out] = (
            (out / "results.csv").read_bytes(),
            (out / "results.json").read_bytes(),
        )
    files = list(outputs.values())
    assert files[0] == files[1] == files[2]
    _report("11", "results.csv and results.json byte-identical across worker counts 1/2/1")

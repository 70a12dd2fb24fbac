import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import workloads
from nccsim import DesignConfig, bias

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY = {
    "oc_point": dict(replicates=20),
    "oc_boot": dict(replicates=2, bootstrap_b=20),
    "grid_cli": dict(replicates=4),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a few replicates and keep records in tmp."""
    for name, sizes in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **sizes)
        )
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_the_gate(tiny, capsys, workload):
    code, result = _run(capsys, workload, 0)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_traced_run_reports_every_layer_metric(tiny, capsys, workload):
    code, result = _run(capsys, workload, 1)
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "oc_point":
        assert metrics["adjusted.bootstrap_variances.calls"] == 0
    if workload == "oc_boot":
        assert metrics["adjusted.bootstrap.resamples"] == 20 * metrics["adjusted.bootstrap_variances.calls"]
    if workload == "grid_cli":
        assert metrics["cli.main.calls"] == 1
        assert metrics["harness.run_scenario.calls"] == 56
        assert metrics["harness.run_replicate.calls"] == 0  # inside the pool workers
        assert metrics["harness.pool.busy_frac"] > 0


def test_traced_call_counts_repeat_for_a_seed(tiny, capsys):
    _, first = _run(capsys, "oc_boot", 1)
    _, second = _run(capsys, "oc_boot", 1)
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls") or k.endswith("_per_replicate")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]


def test_wrong_closed_form_fails_the_gate(tiny, capsys, monkeypatch):
    monkeypatch.setattr(bias, "stop_probability", lambda inputs: 0.999)
    code, result = _run(capsys, "oc_point", 0)
    assert code == 1
    assert result["correct"] is False


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oc_point", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_pooled_mean_se_matches_the_unsplit_sample():
    values = np.random.default_rng(3).normal(size=97)
    parts = []
    for chunk in np.array_split(values, [10, 11, 50]):
        se = chunk.std(ddof=1) / np.sqrt(chunk.size) if chunk.size > 1 else None
        parts.append((chunk.size, chunk.mean(), se))
    n, mean, se = gate.pooled_mean_se(parts)
    assert n == 97
    assert mean == pytest.approx(values.mean())
    assert se == pytest.approx(values.std(ddof=1) / np.sqrt(97))


def test_gate_flags_a_biased_estimate():
    config = DesignConfig(n01=150, n11=150, n02=150, n12=150, n22=150, alpha1=0.5)
    good = gate.Outcome("d", config, 1000, 500, True, (bias.conditional_bias(bias.bias_inputs(config)), 0.004), (0.0, 0.003))
    bad = dataclasses.replace(good, separate_marginal_bias=(0.05, 0.003))
    assert all(c.ok for c in gate.check_outcomes([good]))
    failed = [c.name for c in gate.check_outcomes([bad]) if not c.ok]
    assert failed == ["separate_marginal_bias[d]"]
    assert not gate.check_outcomes([])[0].ok

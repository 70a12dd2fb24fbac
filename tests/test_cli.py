import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nccsim import (
    CELLS, METHODS, STATISTICS, DesignConfig, Scenario, TimeTrendSpec, TrendPattern,
    harness, run_replicate, run_scenario, scenario_grid,
)
from nccsim.cli import (
    _PLAN_DEFAULTS,
    ConfigError,
    RESULTS_CSV_COLUMNS,
    _single_scenario,
    analytic_rows,
    build_parser,
    emit_results,
    main,
    parse_config,
    resolve_workers,
)
from conftest import default_config, failing_group

DATA = Path(__file__).parent / "data"

GRID_PLAN = """\
# run the built-in one-factor grid
grid: table1
replicates: 50
bootstrap_b: 0
"""

CUSTOM_PLAN = """\
replicates: 80
bootstrap_b: 0

[scenario]
id: demo
alpha1: 0.3
theta2: 0.32
n01: 20
n11: 20
n02: 20
n12: 20
n22: 20
"""


def write_plan(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "plan.txt"
    path.write_text(text)
    return path


class TestParseConfig:
    def test_grid_preset_expands_both_hypotheses(self, tmp_path):
        scenarios = parse_config(write_plan(tmp_path, GRID_PLAN))
        assert len(scenarios) == 56
        assert all(s.replicates == 50 for s in scenarios)
        assert all(s.bootstrap is None for s in scenarios)

    def test_custom_scenario_values(self, tmp_path):
        scenarios = parse_config(write_plan(tmp_path, CUSTOM_PLAN))
        assert len(scenarios) == 1
        s = scenarios[0]
        assert s.scenario_id == "demo"
        assert s.hypothesis == "alternative"
        assert s.config.alpha1 == 0.3
        assert s.config.n01 == 20
        assert s.replicates == 80

    def test_overrides_take_precedence(self, tmp_path):
        scenarios = parse_config(
            write_plan(tmp_path, CUSTOM_PLAN),
            replicates_override=11,
            bootstrap_b_override=200,
        )
        assert scenarios[0].replicates == 11
        assert scenarios[0].bootstrap.b == 200

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_plan(tmp_path, "replicates: 10\nbogus: 1\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            parse_config(path)

    def test_unknown_scenario_key_reports_line(self, tmp_path):
        path = write_plan(tmp_path, "[scenario]\nid: x\nn99: 3\n")
        with pytest.raises(ConfigError, match=r":3: unknown scenario key 'n99'"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_plan(tmp_path, "replicates 10\n")
        with pytest.raises(ConfigError, match=r":1"):
            parse_config(path)

    def test_grid_and_blocks_conflict(self, tmp_path):
        path = write_plan(tmp_path, "grid: table1\n[scenario]\nid: x\n")
        with pytest.raises(ConfigError, match="grid"):
            parse_config(path)

    def test_validation_errors_propagate(self, tmp_path):
        path = write_plan(tmp_path, "[scenario]\nid: x\nsigma: 0\n")
        with pytest.raises(ValueError, match="sigma must be positive"):
            parse_config(path)

    def test_infinite_sigma_is_rejected(self, tmp_path):
        path = write_plan(tmp_path, "[scenario]\nid: x\nsigma: inf\n")
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            parse_config(path)

    def test_hypothesis_consistency(self, tmp_path):
        # theta2 alone decides the hypothesis, so the plan cannot state it
        path = write_plan(tmp_path, "[scenario]\nid: x\nhypothesis: null\ntheta2: 0.32\n")
        with pytest.raises(ConfigError, match=r":3: unknown scenario key 'hypothesis'"):
            parse_config(path)

    def test_bad_trend_value(self, tmp_path):
        path = write_plan(tmp_path, "[scenario]\nid: x\ntrend: wavy\n")
        with pytest.raises(ConfigError, match="wavy"):
            parse_config(path)

    def test_empty_plan_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no scenarios"):
            parse_config(write_plan(tmp_path, "replicates: 10\n"))

    @pytest.mark.parametrize("text, message", [
        ("replicates: 1e3\n[scenario]\n", r":1: invalid value for 'replicates'"),
        ("bootstrap_b: x\n[scenario]\n", r":1: invalid value for 'bootstrap_b'"),
        ("bootstrap_seed: x\n[scenario]\n", r":1: invalid value for 'bootstrap_seed'"),
        ("bootstrap_seed: -1\ngrid: table1\n", "bootstrap_seed must be >= 0"),
        ("[scenario]\nid: x\n[scenario]\nn01: 0\n", "scenario number 2: n01 must be"),
        ("[scenario]\nid: small\nn12: 0\n", "scenario id 'small': n12 must be an integer >= 1"),
        ("[scenario]\nn22: 99999999999999999999\n", "n22 must be at most 9223372036854775807"),
        ("bootstrap_b: 99999999999999999999\n[scenario]\n",
         "bootstrap_b: bootstrap resample count must be at most 192153584101141162"),
        ("bootstrap_b: 4611686018427387904\n[scenario]\n",
         "at most 192153584101141162, got 4611686018427387904"),
        ("[scenario]\nalpha1: 1e-17\n", "alpha1 is too small: 1 - alpha1 rounds to 1"),
        ("[scenario]\nalpha: 1e-300\n", "alpha is too small: 1 - alpha rounds to 1"),
    ], ids=["replicates", "bootstrap_b", "bootstrap_seed", "negative_seed", "by_index", "by_id",
            "oversized_cell_size", "oversized_bootstrap_b", "unallocatable_bootstrap_b",
            "tiny_alpha1", "tiny_alpha"])
    def test_every_error_is_a_config_error(self, tmp_path, capsys, text, message):
        path = write_plan(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        code = main(["simulate", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


PLAN_KEYS = sorted(key for section in _PLAN_DEFAULTS.values() for key in section) + ["bogus"]
PLAN_VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "3", "-1", "1e3", "0.5", "1.5", "inf", "nan", "x", "table1",
        "none", "linear", "stepwise", "null", "alternative", "99" * 30,
    ]),
    st.text(max_size=6),
)
PLAN_LINES = st.one_of(
    st.just("[scenario]"),
    st.builds("{}: {}".format, st.sampled_from(PLAN_KEYS), PLAN_VALUES),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(PLAN_LINES, max_size=10))
def test_parse_config_returns_scenarios_or_raises_config_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            scenarios = parse_config(path)
        except ConfigError:
            return
    assert scenarios and all(isinstance(s, Scenario) for s in scenarios)


def readme_plans() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    return [text for language, text in blocks if not language]


def test_every_plan_in_the_readme_parses(tmp_path):
    plans = readme_plans()
    assert len(plans) == 2
    for text in plans:
        assert parse_config(write_plan(tmp_path, text))


def test_a_plan_with_a_byte_order_mark_parses_the_same(tmp_path):
    for text in readme_plans():
        plain = parse_config(write_plan(tmp_path, text))
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parse_config(path) == plain


class TestDefaultDesign:
    """The default design is written once, as ``DesignConfig``'s defaults,
    and every command starts from it."""

    def flat_default(self) -> dict:
        default = DesignConfig()
        flat = {f.name: getattr(default, f.name) for f in fields(default) if f.name != "trend"}
        return {**flat, "trend": default.trend.pattern.value, "lambda": default.trend.lam}

    def test_every_field_is_a_plan_key_and_a_single_flag_with_its_default(self):
        flat = self.flat_default()
        assert _PLAN_DEFAULTS["scenario"] == {"id": None, **flat}
        args = build_parser().parse_args(["single", "--seed", "1"])
        assert {key: getattr(args, key) for key in flat} == flat

    def test_a_plan_and_single_start_from_the_default_design(self, tmp_path):
        (scenario,) = parse_config(write_plan(tmp_path, "[scenario]\nid: x\n"))
        assert scenario.config == DesignConfig()
        args = build_parser().parse_args(["single", "--seed", "1"])
        assert _single_scenario(args).config == DesignConfig()

    def test_table1_default_points_are_the_default_design(self):
        grid = {s.scenario_id: s.config for s in scenario_grid(replicates=1)}
        for label in ("alpha1=0.5", "r=1", "a=1"):
            assert grid[f"null:{label}"] == DesignConfig(theta2=0.0)
            assert grid[f"alternative:{label}"] == DesignConfig(
                theta2=harness.ALTERNATIVE_THETA2
            )

    def test_analytic_panels_start_from_the_default_design(self):
        default = DesignConfig()
        rows = list(analytic_rows())
        assert rows[0][0] == "A"
        assert rows[0][5:9] == (float(default.n01),) * 4
        assert {r[1] for r in rows if r[0] in "BC"} == {default.alpha1}


class TestSimulateCommand:
    def test_missing_seed_is_an_error(self, tmp_path, capsys):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(plan), "--out", str(tmp_path / "o")])

    def test_end_to_end_schema(self, tmp_path):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(plan), "--seed", "7", "--out", str(out)]) == 0
        with (out / "results.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(METHODS) * len(STATISTICS)
        assert tuple(rows[0]) == RESULTS_CSV_COLUMNS
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], []).append(row["statistic_name"])
        for method in METHODS:
            assert by_method[method] == list(STATISTICS)
        assert rows[0]["scenario_id"] == "demo"
        assert rows[0]["n_replicates"] == "80"
        assert rows[0]["n_failed"] == "0"
        assert rows[0]["valid"] == "True"

    def test_csv_carries_failures_and_validity(self, tmp_path, monkeypatch):
        # every bootstrap fails, so every continuing replicate is a failure
        monkeypatch.setattr(harness, "bootstrap_group", failing_group(harness.bootstrap_group))
        plan = write_plan(tmp_path, CUSTOM_PLAN.replace("bootstrap_b: 0", "bootstrap_b: 5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(plan), "--seed", "7", "--out", str(out)]) == 0
        entry = json.loads((out / "results.json").read_text())["results"][0]
        assert entry["n_failed"] > 0 and not entry["valid"]
        with (out / "results.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {(row["n_failed"], row["valid"]) for row in rows} == {
            (str(entry["n_failed"]), "False")
        }

    def test_csv_values_match_direct_run(self, tmp_path):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        out = tmp_path / "out"
        main(["simulate", "--config", str(plan), "--seed", "7", "--out", str(out)])
        scenario = parse_config(plan)[0]
        oc = run_scenario(scenario, 7)
        with (out / "results.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            stat = oc.stats[row["method"]][row["statistic_name"]]
            if row["value"] == "":
                assert stat.value is None
            else:
                assert float(row["value"]) == stat.value

    def test_json_mirror(self, tmp_path):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        out = tmp_path / "out"
        main(["simulate", "--config", str(plan), "--seed", "9", "--out", str(out)])
        payload = json.loads((out / "results.json").read_text())
        assert payload["master_seed"] == 9
        entry = payload["results"][0]
        assert entry["scenario_id"] == "demo"
        assert set(entry["methods"]) == set(METHODS)
        oc = run_scenario(parse_config(plan)[0], 9)
        assert entry["methods"]["separate"]["marginal_bias"]["value"] == pytest.approx(
            oc.stats["separate"]["marginal_bias"].value, rel=1e-15
        )

    def test_reruns_are_byte_identical(self, tmp_path):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(plan), "--seed", "3", "--out", str(out1)])
        main(["simulate", "--config", str(plan), "--seed", "3", "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()

    def test_numpy_float_design_writes_the_same_csv(self, tmp_path):
        outputs = []
        for number in (float, np.float64):
            config = DesignConfig(
                n01=20, n11=20, n02=20, n12=20, n22=20, alpha1=number(0.5),
                trend=TimeTrendSpec(TrendPattern.STEPWISE, number(0.1)),
            )
            out = tmp_path / number.__name__
            emit_results([run_scenario(Scenario("demo", config, 20), 3)], out, 3)
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert b"np.float64" not in outputs[1]

    def test_error_exit_code(self, tmp_path, capsys):
        plan = write_plan(tmp_path, "bogus: 1\n")
        code = main(["simulate", "--config", str(plan), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unusable_out_exits_2_before_any_scenario_runs(self, tmp_path, capsys, monkeypatch):
        import nccsim.cli as cli_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a scenario ran before --out was checked")

        monkeypatch.setattr(cli_module, "run_scenario", forbidden)
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "simulate", "--config", str(plan), "--seed", "1", "--out", str(blocker / "o"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_are_rejected(self, tmp_path, capsys, workers):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        code = main([
            "simulate", "--config", str(plan), "--seed", "1",
            "--out", str(tmp_path / "o"), "--workers", workers,
        ])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_workers_are_capped_at_the_usable_cpus(self, tmp_path, monkeypatch):
        import nccsim.cli as cli_module

        usable = len(os.sched_getaffinity(0))
        assert resolve_workers(usable + 1) == usable
        seen = []
        real = cli_module.run_scenario

        def recording(scenario, seed, workers=1):
            seen.append(workers)
            return real(scenario, seed, workers=workers)

        monkeypatch.setattr(cli_module, "run_scenario", recording)
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        outputs = []
        for workers in (usable + 1, 1):
            out = tmp_path / f"w{workers}"
            assert main([
                "simulate", "--config", str(plan), "--seed", "1",
                "--out", str(out), "--workers", str(workers),
            ]) == 0
            outputs.append((out / "results.csv").read_bytes())
        assert seen == [usable, 1]
        assert outputs[0] == outputs[1]


class TestAnalyticCommand:
    def test_rows_contain_reference_point(self):
        rows = list(analytic_rows())
        panel_a = {round(r[1], 6): r for r in rows if r[0] == "A"}
        ref = panel_a[0.5]
        assert ref[10] == pytest.approx(0.011516471649044516, abs=1e-12)
        assert ref[11] == pytest.approx(0.023032943298089032, abs=1e-12)

    def test_edge_bounds_are_nearly_unbiased(self):
        rows = list(analytic_rows())
        for alpha1 in (0.001, 0.999):
            row = next(r for r in rows if r[0] == "A" and r[1] == alpha1)
            assert row[10] == pytest.approx(0.0, abs=1e-3)

    def test_panel_c_unit_ratio_matches_panel_b(self):
        rows = list(analytic_rows())
        b1 = next(r for r in rows if r[0] == "B" and r[2] == 1.0)
        c1 = next(r for r in rows if r[0] == "C" and r[3] == 1.0)
        assert b1[10] == pytest.approx(c1[10], rel=1e-12)
        assert b1[11] == pytest.approx(c1[11], rel=1e-12)

    def test_command_writes_csv(self, tmp_path):
        assert main(["analytic", "--out", str(tmp_path)]) == 0
        with (tmp_path / "analytic_bias.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {r["panel"] for r in rows} == {"A", "B", "C"}
        target = [r for r in rows if r["panel"] == "A" and r["alpha1"] == "0.5"]
        assert float(target[0]["marginal_bias"]) == pytest.approx(0.011516471649044516)

    @pytest.mark.parametrize("theta1", ["-0.3", "-1"])
    def test_every_row_has_a_conditional_bias(self, tmp_path, theta1):
        # a negative arm-1 effect stops almost every trial of some designs of
        # the grid (115 of them at -1, panel B's r = 10 at -0.3), and the
        # conditional bias is still finite there
        assert main(["analytic", "--out", str(tmp_path), f"--theta1={theta1}"]) == 0
        with (tmp_path / "analytic_bias.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 133
        for row in rows:
            assert math.isfinite(float(row["marginal_bias"]))
            assert math.isfinite(float(row["conditional_bias"]))
            assert float(row["conditional_bias"]) >= float(row["marginal_bias"])

    @pytest.mark.parametrize("theta1", ["-0.3", "-1"])
    def test_a_row_that_fails_leaves_no_partial_csv(self, tmp_path, capsys, monkeypatch, theta1):
        # the last of the 133 rows raises, after every row of a design where
        # arm 1 almost never continues
        import nccsim.cli as cli_module

        real = cli_module.marginal_bias
        calls = []

        def failing_late(inputs):
            calls.append(inputs)
            if len(calls) == 133:
                raise ValueError("injected")
            return real(inputs)

        monkeypatch.setattr(cli_module, "marginal_bias", failing_late)
        assert main(["analytic", "--out", str(tmp_path), f"--theta1={theta1}"]) == 2
        assert "injected" in capsys.readouterr().err
        assert not (tmp_path / "analytic_bias.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta1", ["-1e307", "1e307"])
    def test_extreme_theta1_writes_without_warnings(self, tmp_path, theta1):
        assert main(["analytic", "--out", str(tmp_path), f"--theta1={theta1}"]) == 0
        with (tmp_path / "analytic_bias.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 133
        assert all(row["marginal_bias"] == "0.0" for row in rows)
        assert all(math.isfinite(float(row["conditional_bias"])) for row in rows)

    @pytest.mark.parametrize("theta1", ["nan", "inf"])
    def test_non_finite_theta1_exits_2(self, tmp_path, capsys, theta1):
        assert main(["analytic", "--out", str(tmp_path), "--theta1", theta1]) == 2
        assert "--theta1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "analytic_bias.csv").exists()


class TestSingleCommand:
    def test_trace_matches_run_replicate(self, tmp_path, capsys):
        code = main(["single", "--seed", "12", "--bootstrap-b", "40"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "seed: 12"
        z11 = float(lines[1].split(": ")[1])
        decision = lines[3].split(": ")[1]

        from nccsim import BootstrapSettings, Scenario

        scenario = Scenario("single", default_config(), 1, BootstrapSettings(b=40, seed=0))
        result = run_replicate(scenario, 12, 0)
        assert z11 == result.z11[0]
        assert decision == ("continue" if result.continued[0] else "stop")
        row = next(l for l in lines if l.startswith("mae_cumvue"))
        estimate = float(row.split()[1])
        assert estimate == result.estimates[METHODS.index("mae_cumvue"), 0]

    @pytest.mark.parametrize("b", ["200", "0"])
    def test_trace_matches_the_golden_output(self, capsys, b):
        # seed 12 continues: corrections, bootstrap variances and the empty
        # fields of the methods without a test all show
        assert main(["single", "--seed", "12", "--bootstrap-b", b]) == 0
        expected = (DATA / f"single_seed12_b{b}.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_failed_bootstrap_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "bootstrap_group", failing_group(harness.bootstrap_group))
        assert main(["single", "--seed", "12", "--bootstrap-b", "40", "--alpha1", "1.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:5] == ["decision: continue", "bootstrap: failed"]
        for line in lines[-4:]:
            # an adjusted method keeps its estimate and correction, and has no test
            assert line.startswith("mae_") and len(line.split()) == 3, line

    def test_negative_bootstrap_b_exits_2_in_both_commands(self, tmp_path, capsys):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        for argv in (
            ["single", "--seed", "1"],
            ["simulate", "--config", str(plan), "--seed", "1", "--out", str(tmp_path / "o")],
        ):
            assert main(argv + ["--bootstrap-b", "-5"]) == 2, argv[0]
            captured = capsys.readouterr()
            assert "bootstrap_b must be >= 0 (0 disables the bootstrap)" in captured.err
            assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_2_in_both_commands(self, tmp_path, capsys):
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        for argv in (
            ["single", "--bootstrap-b", "0"],
            ["simulate", "--config", str(plan), "--out", str(tmp_path / "o")],
        ):
            assert main(argv + ["--seed", "-1"]) == 2, argv[0]
            captured = capsys.readouterr()
            assert "--seed must be >= 0, got -1" in captured.err
            assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_one_resample_bootstrap_exits_2_in_both_commands(self, tmp_path, capsys):
        # one resample has variance 0, which would make every t statistic infinite
        plan = write_plan(tmp_path, CUSTOM_PLAN)
        for argv in (
            ["single", "--seed", "12"],
            ["simulate", "--config", str(plan), "--seed", "1", "--out", str(tmp_path / "o")],
        ):
            assert main(argv + ["--bootstrap-b", "1"]) == 2, argv[0]
            captured = capsys.readouterr()
            assert "bootstrap_b must be 0 (no bootstrap) or at least 2, got 1" in captured.err
            assert captured.out == ""
        assert not (tmp_path / "o").exists()
        plan.write_text(CUSTOM_PLAN.replace("bootstrap_b: 0", "bootstrap_b: 1"))
        assert main(["simulate", "--config", str(plan), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "at least 2, got 1" in capsys.readouterr().err

    def test_infinite_sigma_flag_exits_2(self, capsys):
        assert main(["single", "--seed", "1", "--sigma", "inf"]) == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err

    def test_empty_arm1_period2_cell_exits_2(self, capsys):
        assert main(["single", "--seed", "1", "--n12", "0"]) == 2
        assert "n12 must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--n22", "n22 must be at most 9223372036854775807"),
        ("--bootstrap-b", "bootstrap resample count must be at most 192153584101141162"),
    ])
    def test_oversized_integer_exits_2(self, capsys, flag, message):
        assert main(["single", "--seed", "1", flag, "99999999999999999999"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha1", "1e-300", "alpha1 is too small: 1 - alpha1 rounds to 1"),
        ("--alpha", "1e-300", "alpha is too small: 1 - alpha rounds to 1"),
        ("--bootstrap-b", "4611686018427387904",
         "bootstrap resample count must be at most 192153584101141162"),
    ], ids=["alpha1", "alpha", "bootstrap_b"])
    def test_value_the_run_cannot_use_exits_2(self, capsys, flag, value, message):
        assert main(["single", "--seed", "12", flag, value]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_patient_dump(self, tmp_path, capsys):
        dump = tmp_path / "trial.csv"
        main([
            "single", "--seed", "4", "--bootstrap-b", "0", "--csv", str(dump),
            "--n01", "5", "--n11", "5", "--n02", "5", "--n12", "5", "--n22", "5",
        ])
        with dump.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert list(rows[0]) == ["j", "arm", "period", "y"]
        assert [int(r["j"]) for r in rows] == list(range(1, 26))
        period1 = [r for r in rows if r["period"] == "1"]
        assert len(period1) == 10

    @pytest.mark.parametrize("pattern", list(TrendPattern), ids=lambda p: p.value)
    def test_patient_dump_is_the_analysed_trial(self, tmp_path, capsys, pattern):
        dump = tmp_path / "trial.csv"
        assert main([
            "single", "--seed", "4", "--bootstrap-b", "0", "--csv", str(dump),
            "--trend", pattern.value, "--lambda", "0.15", "--n11", "60", "--n22", "90",
        ]) == 0
        z11 = float(capsys.readouterr().out.splitlines()[1].split(": ")[1])
        config = default_config(n11=60, n22=90, trend=TimeTrendSpec(pattern, 0.15))
        with dump.open() as handle:
            rows = list(csv.DictReader(handle))
        cells = {}
        for r in rows:
            cells.setdefault((int(r["arm"]), int(r["period"])), []).append(float(r["y"]))
        assert sorted(cells) == sorted(CELLS)
        assert tuple(len(cells[cell]) for cell in CELLS) == config.cells
        m01, m11 = (np.mean(cells[cell]) for cell in ((0, 1), (1, 1)))
        assert abs((m11 - m01) / config.period1_se - z11) <= 1e-12


#: The modules of the runtime package; the patient-level oracle is not one.
RUNTIME_MODULES = [
    "nccsim", "nccsim.adjusted", "nccsim.bias", "nccsim.cli", "nccsim.datagen",
    "nccsim.design", "nccsim.harness", "nccsim.normal", "nccsim.theta1",
]


class TestRuntimeImports:
    def test_commands_never_import_scipy(self, tmp_path):
        # scipy is a test-only extra: the commands' start-up time and memory
        # are measured without it. Nor do they load the tests' oracle, or
        # multiprocessing when they run serially.
        plan = write_plan(tmp_path, CUSTOM_PLAN.replace("replicates: 80", "replicates: 20")
                          .replace("bootstrap_b: 0", "bootstrap_b: 5"))
        out = tmp_path / "o"
        script = (
            "import sys\n"
            "from nccsim.cli import main\n"
            "assert main(['single', '--seed', '12', '--bootstrap-b', '20',"
            f" '--csv', {str(tmp_path / 'trial.csv')!r}]) == 0\n"
            f"assert main(['simulate', '--config', {str(plan)!r}, '--seed', '1',"
            f" '--out', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('nccsim')))\n"
            "print('oracle' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, check=True,
        )
        modules, oracle, scipy, pool = result.stdout.splitlines()[-4:]
        assert modules == str(RUNTIME_MODULES)
        assert oracle == "False"
        assert scipy == "[]"
        assert pool == "False"

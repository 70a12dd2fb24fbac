"""Command-line front end: ``simulate``, ``analytic`` and ``single``.

``simulate`` runs scenarios from a plan file and writes ``results.csv`` plus
a ``results.json`` mirror. ``analytic`` evaluates the closed-form bias
curves on design grids. ``single`` traces one trial end to end and can dump
its patient rows. All outputs are byte-identical across reruns with the
same inputs; nothing is derived from the clock or the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from .adjusted import BootstrapSettings, t_statistic
from .bias import BiasInputs, conditional_bias, marginal_bias
from .design import (
    DesignConfig,
    TimeTrendSpec,
    TrendPattern,
    futility_cutoff,
    ncc_weight,
    period1_se,
)
from .harness import (
    METHODS,
    STATISTICS,
    OperatingCharacteristics,
    Scenario,
    replicate_trial,
    run_replicate,
    run_scenario,
    scenario_grid,
)

RESULTS_CSV_COLUMNS = (
    "scenario_id",
    "hypothesis",
    "alpha1",
    "r",
    "a",
    "lambda",
    "trend_pattern",
    "n01",
    "n11",
    "n02",
    "n12",
    "n22",
    "method",
    "statistic_name",
    "value",
    "mc_se",
    "n_replicates",
    "n_continuing",
    "n_failed",
    "valid",
)


def _flat_design(config: DesignConfig, pattern_key: str = "trend") -> dict[str, object]:
    """Every ``DesignConfig`` field of ``config``, the trend flattened to its
    pattern's value under ``pattern_key`` and ``lambda``: the design keys of
    a plan and ``single``, or (``trend_pattern``) of a ``results.json`` entry."""
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    trend = values.pop("trend")
    return {**values, pattern_key: trend.pattern.value, "lambda": trend.lam}


#: Every key of a plan with its default: the keys at the top of the file,
#: then those of a ``[scenario]`` block (also ``single``'s design flags). A
#: value is parsed as its default's type when that is int or float and kept
#: as text otherwise; ``None`` marks a text key without a default.
_PLAN_DEFAULTS = {
    "top": {"grid": None, "replicates": 10_000, "bootstrap_b": 1000, "bootstrap_seed": 0},
    "scenario": {"id": None, **_flat_design(DesignConfig())},
}


class ConfigError(ValueError):
    """Plan-file parse or validation error, with line context where known."""


def _parse_plan_text(path: Path):
    """Split the plan file into top-level settings and scenario blocks, each
    value coerced to its key's type."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    top: dict[str, object] = {}
    blocks: list[dict[str, object]] = []
    current: dict[str, object] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[scenario]":
            current = {}
            blocks.append(current)
            continue
        if ":" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value' or '[scenario]'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if current is None:
            defaults, target, kind = _PLAN_DEFAULTS["top"], top, "key"
        else:
            defaults, target, kind = _PLAN_DEFAULTS["scenario"], current, "scenario key"
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown {kind} '{key}'")
        if key in target:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: missing value for '{key}'")
        try:
            target[key] = _coerce(value, defaults[key])
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: invalid value for '{key}': {value!r}"
            ) from exc
    return top, blocks


def _coerce(value: str, default):
    return type(default)(value) if isinstance(default, (int, float)) else value


def _build_scenario(
    block: dict[str, object], index: int, replicates: int,
    bootstrap: BootstrapSettings | None,
) -> Scenario:
    """The scenario of one block of coerced values; any error it raises is a
    :class:`ConfigError` naming the block by id, else by position."""
    where = f"id {block['id']!r}" if "id" in block else f"number {index}"
    design = {**_PLAN_DEFAULTS["scenario"], **block}
    del design["id"]
    try:
        trend = TimeTrendSpec(TrendPattern(design.pop("trend")), design.pop("lambda"))
        config = DesignConfig(**design, trend=trend)
        return Scenario(block.get("id", f"scenario-{index}"), config, replicates, bootstrap)
    except ValueError as exc:
        raise ConfigError(f"scenario {where}: {exc}") from exc


def _bootstrap_settings(b: int, seed: int) -> BootstrapSettings | None:
    """The bootstrap of a ``simulate`` plan or a ``single`` trace; ``None``
    for ``b = 0``. Raises :class:`ConfigError` for a negative ``b`` or
    ``seed``, for ``b = 1``, whose variance is always 0, and for any other
    ``b`` that :class:`BootstrapSettings` rejects."""
    if b < 0:
        raise ConfigError("bootstrap_b must be >= 0 (0 disables the bootstrap)")
    if b == 1:
        raise ConfigError("bootstrap_b must be 0 (no bootstrap) or at least 2, got 1")
    if seed < 0:
        raise ConfigError(f"bootstrap_seed must be >= 0, got {seed}")
    try:
        return BootstrapSettings(b=b, seed=seed) if b > 0 else None
    except ValueError as exc:
        raise ConfigError(f"bootstrap_b: {exc}") from exc


def parse_config(
    path: Path | str,
    replicates_override: int | None = None,
    bootstrap_b_override: int | None = None,
) -> list[Scenario]:
    """Read a plan file into fully validated scenarios.

    Either ``grid: table1`` (the built-in one-factor grid, both hypotheses)
    or one or more ``[scenario]`` blocks. A ``bootstrap_b`` of 0 disables
    the bootstrap, so only point estimates and the closed-form tests run.
    Every error in the plan raises :class:`ConfigError`, naming its line or
    its scenario block.
    """
    path = Path(path)
    top, blocks = _parse_plan_text(path)

    top = {**_PLAN_DEFAULTS["top"], **top}
    replicates = top["replicates"] if replicates_override is None else replicates_override
    b = top["bootstrap_b"] if bootstrap_b_override is None else bootstrap_b_override
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    bootstrap = _bootstrap_settings(b, top["bootstrap_seed"])

    grid = top["grid"]
    if grid is not None:
        if blocks:
            raise ConfigError("'grid' cannot be combined with [scenario] blocks")
        if grid != "table1":
            raise ConfigError(f"unknown grid preset '{grid}'")
        return scenario_grid(replicates=replicates, bootstrap=bootstrap)
    if not blocks:
        raise ConfigError(f"{path}: no scenarios defined")
    scenarios = [
        _build_scenario(block, i + 1, replicates, bootstrap)
        for i, block in enumerate(blocks)
    ]
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate scenario ids")
    return scenarios


# --- output ------------------------------------------------------------------


def _fmt(value) -> str:
    """A field of the outputs: empty for ``None`` and NaN (no value), a
    float's ``repr``, else ``str``."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return "" if value is None else str(value)


def _write_csv(path: Path, columns, rows) -> Path:
    """Write ``columns`` and then ``rows`` to the CSV file ``path``, making
    its directory; returns ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def _result_rows(result: OperatingCharacteristics):
    scenario = result.scenario
    config = scenario.config
    meta = (
        scenario.scenario_id,
        scenario.hypothesis,
        _fmt(config.alpha1),
        _fmt(config.ratio_r),
        _fmt(config.ratio_a),
        _fmt(config.trend.lam),
        config.trend.pattern.value,
        config.n01,
        config.n11,
        config.n02,
        config.n12,
        config.n22,
    )
    for method in METHODS:
        for name in STATISTICS:
            stat = result.stats[method][name]
            yield meta + (
                method,
                name,
                _fmt(stat.value),
                _fmt(stat.mc_se),
                result.n_replicates,
                result.n_continuing,
                result.n_failed,
                result.valid,
            )


def emit_results(
    results: list[OperatingCharacteristics], out_dir: Path | str, master_seed: int
) -> tuple[Path, Path]:
    """Write ``results.csv`` and its JSON mirror; returns both paths."""
    out_dir = Path(out_dir)
    rows = (row for result in results for row in _result_rows(result))
    csv_path = _write_csv(out_dir / "results.csv", RESULTS_CSV_COLUMNS, rows)

    payload = {
        "master_seed": master_seed,
        "results": [
            {
                "scenario_id": r.scenario.scenario_id,
                "hypothesis": r.scenario.hypothesis,
                "design": _flat_design(r.scenario.config, "trend_pattern"),
                "n_replicates": r.n_replicates,
                "n_continuing": r.n_continuing,
                "n_failed": r.n_failed,
                "valid": r.valid,
                "methods": {
                    method: {
                        name: {"value": stat.value, "mc_se": stat.mc_se}
                        for name, stat in r.stats[method].items()
                    }
                    for method in METHODS
                },
            }
            for r in results
        ],
    }
    json_path = out_dir / "results.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


# --- analytic curves ---------------------------------------------------------

_ANALYTIC_ALPHA1 = tuple([0.001, 0.005] + [i / 100 for i in range(1, 100)] + [0.995, 0.999])
_ANALYTIC_RATIOS = (
    1 / 15, 0.1, 0.15, 0.2, 1 / 3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0
)
ANALYTIC_CSV_COLUMNS = (
    "panel", "alpha1", "r", "a", "theta1",
    "n01", "n11", "n02", "n12", "rho", "marginal_bias", "conditional_bias",
)


def analytic_rows(theta1: float = 0.0):
    """Closed-form bias over the three design grids.

    Around the default design ``DesignConfig()``, panel A varies the
    futility bound; panel B the period-size ratio with period-2 cells fixed;
    panel C the arm-1 allocation ratio with control cells fixed. Cell sizes
    may be non-integer here: the formulas are continuous in them.
    """
    default = DesignConfig()

    def row(panel, alpha1, n01, n11, n02, n12):
        rho = ncc_weight(n01, n02, n11, n12)
        se1 = period1_se(n01, n11, default.sigma)
        inputs = BiasInputs(
            rho=rho, se1=se1, c1=futility_cutoff(alpha1), theta1=theta1
        )
        return (
            panel, alpha1, n01 / n02, n11 / n01, theta1, n01, n11, n02, n12, rho,
            marginal_bias(inputs), conditional_bias(inputs),
        )

    n = float(default.n01)
    for alpha1 in _ANALYTIC_ALPHA1:
        yield row("A", alpha1, n, n, n, n)
    for r in _ANALYTIC_RATIOS:
        yield row("B", default.alpha1, n * r, n * r, n, n)
    for a in _ANALYTIC_RATIOS:
        yield row("C", default.alpha1, n, n * a, n, n * a)


def emit_analytic(rows, out_dir: Path | str) -> Path:
    """Write ``analytic_bias.csv``. Every row is computed before the file is
    opened, so a row that raises leaves no partial file."""
    lines = [[_fmt(v) for v in row] for row in rows]
    return _write_csv(Path(out_dir) / "analytic_bias.csv", ANALYTIC_CSV_COLUMNS, lines)


# --- single-trial trace ------------------------------------------------------


def _single_scenario(args) -> Scenario:
    defaults = _PLAN_DEFAULTS["scenario"]
    block = {key: getattr(args, key) for key, value in defaults.items() if value is not None}
    block["id"] = "single"
    return _build_scenario(block, 1, 1, _bootstrap_settings(args.bootstrap_b, 0))


def run_single(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    scenario = _single_scenario(args)
    record = run_replicate(scenario, args.seed, 0)
    decision = "continue" if record.continued[0] else "stop"
    print(f"seed: {args.seed}", file=out)
    print(f"z11: {_fmt(record.z11[0])}", file=out)
    print(f"c1: {_fmt(scenario.config.c1)}", file=out)
    print(f"decision: {decision}", file=out)
    if record.failed[0]:
        print("bootstrap: failed", file=out)
    header = f"{'method':<14} {'estimate':>22} {'bias_correction':>22} {'variance':>22} {'t':>22} {'rejected':>8}"
    print(header, file=out)
    rows = zip(
        METHODS, record.estimates[:, 0], record.corrections[:, 0], record.variances[:, 0],
        t_statistic(record.estimates, record.variances)[:, 0], record.rejected[:, 0],
    )
    for method, estimate, correction, variance, t, flag in rows:
        print(
            f"{method:<14} {_fmt(estimate):>22} {_fmt(correction):>22} "
            f"{_fmt(variance):>22} {_fmt(t):>22} "
            f"{_fmt(None if flag < 0 else bool(flag)):>8}",
            file=out,
        )
    if args.csv is not None:
        arms, periods, ys = replicate_trial(scenario, args.seed, 0)
        rows = zip(range(1, arms.size + 1), arms, periods, map(_fmt, ys))
        path = _write_csv(Path(args.csv), ("j", "arm", "period", "y"), rows)
        print(f"patient data written to {path}", file=out)
    return 0


# --- entry point -------------------------------------------------------------


def _add_design_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per design key of a plan, with the plan's default and type."""
    for key, default in _PLAN_DEFAULTS["scenario"].items():
        if key == "trend":
            parser.add_argument("--trend", default=default, choices=[p.value for p in TrendPattern])
        elif default is not None:
            parser.add_argument(f"--{key}", type=type(default), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nccsim",
        description="Platform-trial simulation with non-concurrent controls "
        "and a futility interim analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run scenarios from a plan file")
    sim.add_argument("--config", required=True, type=Path, help="scenario plan file")
    sim.add_argument("--seed", required=True, type=int, help="master seed")
    sim.add_argument("--out", required=True, type=Path, help="output directory")
    sim.add_argument("--replicates", type=int, default=None, help="override replicate count")
    sim.add_argument("--bootstrap-b", type=int, default=None, help="override bootstrap resamples (0 disables)")
    sim.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (at least 1; capped at the usable CPUs)",
    )

    ana = sub.add_parser("analytic", help="closed-form bias curves as CSV")
    ana.add_argument("--out", required=True, type=Path)
    ana.add_argument("--theta1", type=float, default=0.0)

    single = sub.add_parser("single", help="trace one simulated trial")
    single.add_argument("--seed", required=True, type=int)
    single.add_argument("--bootstrap-b", type=int, default=_PLAN_DEFAULTS["top"]["bootstrap_b"])
    single.add_argument("--csv", type=Path, default=None, help="dump patient rows to CSV")
    _add_design_flags(single)
    return parser


def resolve_workers(requested: int) -> int:
    """Check ``--workers`` and cap it at the CPUs this process may use.

    Results do not depend on the worker count, so the cap changes only how
    long a run takes.
    """
    if requested < 1:
        raise ConfigError(f"--workers must be >= 1, got {requested}")
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        usable = os.cpu_count() or 1
    return min(requested, usable)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "analytic" and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "simulate":
            workers = resolve_workers(args.workers)
            scenarios = parse_config(
                args.config,
                replicates_override=args.replicates,
                bootstrap_b_override=args.bootstrap_b,
            )
            args.out.mkdir(parents=True, exist_ok=True)  # fail before any scenario runs
            results = [run_scenario(s, args.seed, workers=workers) for s in scenarios]
            csv_path, json_path = emit_results(results, args.out, args.seed)
            print(f"wrote {csv_path} and {json_path}")
            return 0
        if args.command == "analytic":
            if not math.isfinite(args.theta1):
                raise ConfigError(f"--theta1 must be finite, got {args.theta1}")
            path = emit_analytic(analytic_rows(theta1=args.theta1), args.out)
            print(f"wrote {path}")
            return 0
        if args.command == "single":
            return run_single(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

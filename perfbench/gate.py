"""Correctness gate: simulated operating characteristics against closed forms.

Every scenario run is reduced to an :class:`Outcome`, and outcomes are pooled
per design (the scenario id without its hypothesis prefix and run suffix).
For each design the gate requires, within ``Z_LIMIT`` Monte Carlo standard
errors:

* the continuation frequency to match ``1 - bias.stop_probability``;
* the unadjusted conditional bias to match ``bias.conditional_bias``, which
  depends on neither the time trend nor theta2, so null and alternative runs
  of a design pool;
* the marginal bias of the separate (concurrent-only) estimate to be 0.

It also requires every run to be valid in the harness's own sense (at most
``harness.MAX_FAILURE_FRACTION`` failed replicates).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from nccsim import bias

Z_LIMIT = 5.0
#: Fewest continuing replicates for which the sample SE of the conditional
#: bias is trusted; below it the conditional-bias check is skipped.
MIN_CONTINUING = 30


@dataclass(frozen=True)
class Outcome:
    """What the gate needs from one scenario run."""

    design: str
    config: object  # nccsim.design.DesignConfig
    n_ok: int
    n_continuing: int
    valid: bool
    unadjusted_conditional_bias: tuple  # (value, mc_se) over continuing replicates
    separate_marginal_bias: tuple  # (value, mc_se) over all valid replicates


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def design_label(scenario_id: str) -> str:
    """``'null:alpha1=0.5#3'`` -> ``'alpha1=0.5'``."""
    return scenario_id.split(":", 1)[-1].split("#", 1)[0]


def _value_se(stat) -> tuple:
    return (stat["value"], stat["mc_se"]) if isinstance(stat, dict) else (stat.value, stat.mc_se)


def outcome(scenario_id: str, config, n_replicates: int, n_continuing: int,
            n_failed: int, valid: bool, stats) -> Outcome:
    """Build an outcome from a run's counts and its ``method -> statistic``
    table, given either as ``harness.Statistic`` objects or as the
    ``{"value", "mc_se"}`` dicts of ``results.json``."""
    return Outcome(
        design=design_label(scenario_id),
        config=config,
        n_ok=n_replicates - n_failed,
        n_continuing=n_continuing,
        valid=valid,
        unadjusted_conditional_bias=_value_se(stats["unadjusted"]["conditional_bias"]),
        separate_marginal_bias=_value_se(stats["separate"]["marginal_bias"]),
    )


def pooled_mean_se(parts) -> tuple[int, float | None, float | None]:
    """Pool ``(n, mean, se)`` summaries of disjoint samples.

    Recovers each sample's sum of squares from ``se**2 * n * (n - 1)`` and
    returns the pooled count, mean and standard error of the mean.
    """
    parts = [(n, m, se) for n, m, se in parts if n > 0 and m is not None]
    total = sum(n for n, _, _ in parts)
    if total == 0:
        return 0, None, None
    mean = sum(n * m for n, m, _ in parts) / total
    if total < 2:
        return total, mean, None
    ss = sum(
        (n - 1) * n * (se or 0.0) ** 2 + n * (m - mean) ** 2 for n, m, se in parts
    )
    return total, mean, math.sqrt(ss / (total - 1) / total)


def _within(name: str, observed: float, expected: float, se: float | None) -> Check:
    if se is None or se == 0.0:
        ok = observed == expected
        return Check(name, ok, f"observed {observed:.6g}, expected {expected:.6g} exactly")
    z = (observed - expected) / se
    return Check(
        name, abs(z) <= Z_LIMIT,
        f"observed {observed:.6g}, expected {expected:.6g}, z = {z:+.2f}",
    )


def check_outcomes(outcomes: list[Outcome]) -> list[Check]:
    if not outcomes:
        return [Check("outcomes", False, "no scenario results to check")]
    invalid = [o.design for o in outcomes if not o.valid]
    checks = [Check(
        "valid_runs", not invalid,
        f"{len(outcomes) - len(invalid)} of {len(outcomes)} runs valid",
    )]
    by_design = defaultdict(list)
    for o in outcomes:
        by_design[o.design].append(o)
    for design, group in sorted(by_design.items()):
        inputs = bias.bias_inputs(group[0].config)
        n_ok = sum(o.n_ok for o in group)
        n_cont = sum(o.n_continuing for o in group)
        if n_ok == 0:
            checks.append(Check(f"continuation[{design}]", False, "no valid replicates"))
            continue
        p = 1.0 - bias.stop_probability(inputs)
        checks.append(_within(
            f"continuation[{design}]", n_cont / n_ok, p, math.sqrt(p * (1.0 - p) / n_ok)
        ))
        n, mean, se = pooled_mean_se(
            (o.n_continuing, *o.unadjusted_conditional_bias) for o in group
        )
        if n >= MIN_CONTINUING:
            checks.append(_within(
                f"unadjusted_conditional_bias[{design}]", mean,
                bias.conditional_bias(inputs), se,
            ))
        n, mean, se = pooled_mean_se((o.n_ok, *o.separate_marginal_bias) for o in group)
        checks.append(_within(f"separate_marginal_bias[{design}]", mean, 0.0, se))
    return checks

"""Golden output: a small fixed-seed ``simulate`` run against a stored
``results.json``.

The plan covers the default design, the period-ratio design ``r = 10`` and a
linear trend (``lambda = 0.15``), at R = 600 (two chunks) and B = 20. Values
must agree to 1e-12 relative (1e-14 absolute floor); counts, flags, labels
and the structure must agree exactly. A refactor that keeps the RNG stream
and the arithmetic leaves the fixture untouched.
"""

import json
import math
from pathlib import Path

from nccsim.cli import main as cli_main

FIXTURE = Path(__file__).parent / "data" / "golden_results.json"
SEED = 20250808
PLAN = """\
replicates: 600
bootstrap_b: 20

[scenario]
id: default

[scenario]
id: r=10
n01: 1500
n11: 1500

[scenario]
id: lambda=0.15
trend: linear
lambda: 0.15
"""
REL = 1e-12
ABS = 1e-14


def _mismatches(expected, actual, path="$"):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {actual!r}"]
        return [
            m for key in expected for m in _mismatches(expected[key], actual[key], f"{path}.{key}")
        ]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: {expected!r} != {actual!r}"]
        return [
            m for i, (e, a) in enumerate(zip(expected, actual))
            for m in _mismatches(e, a, f"{path}[{i}]")
        ]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=REL, abs_tol=ABS):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    # ints (n_continuing, n_failed, ...), bools, strings and None: exact
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def test_simulate_matches_the_golden_results(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN)
    out = tmp_path / "out"
    code = cli_main(["simulate", "--config", str(plan), "--seed", str(SEED), "--out", str(out)])
    assert code == 0
    actual = json.loads((out / "results.json").read_text())
    expected = json.loads(FIXTURE.read_text())
    assert [r["scenario_id"] for r in actual["results"]] == ["default", "r=10", "lambda=0.15"]
    mismatches = _mismatches(expected, actual)
    assert not mismatches, "\n".join(mismatches[:20])

"""Mutant catalogue: named one-line defects that the fast tests must catch.

Each mutant replaces one piece of text in one file of ``src/nccsim`` and
names the behaviour it breaks. For every mutant, the runner copies ``src``,
``tests``, ``pyproject.toml`` and ``README.md`` (whose plans a test parses)
to a temporary directory, applies the mutant there, and runs the tier-1
tests without the byte pins (``tests/test_golden.py`` and the ``single``
golden-output test) and without the acceptance criteria. A byte pin fails for any change, right or
wrong, so it cannot say which behaviour broke; here only the semantic
tests count. A mutant is killed when the run fails and survives when it
passes. A mutant that no test can catch because it does not change
behaviour is marked equivalent, with the reason.

Usage, from the repository root::

    python3 mutants/run.py

Before any run, every mutant's old text is checked against its file, and
all the texts that do not occur exactly once are listed. The unmutated copy
then runs and must pass. Then every mutant runs, one at a time, and the
survivors are listed. The exit code is 0 when every mutant that is not
marked equivalent is killed, 1 when one survives, and 2 when a mutant's
text is not found exactly once or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The tier-1 tests without the acceptance criteria, the byte pins and the
#: catalogue's own check (which any mutated text fails).
PYTEST_ARGS = (
    "-q", "-x", "-p", "no:cacheprovider", "tests",
    "--ignore=tests/test_acceptance.py",
    "--ignore=tests/test_golden.py",
    "--ignore=tests/test_mutants.py",
    "--deselect=tests/test_cli.py::TestSingleCommand::test_trace_matches_the_golden_output",
)

#: A run that takes longer than this is stopped and counts as killed.
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can catch it, when none can


CATALOGUE = (
    Mutant(
        "rmse_se_without_delta_factor",
        "src/nccsim/harness.py",
        "Statistic(rmse, se / (2.0 * rmse) if rmse > 0.0 else None)",
        "Statistic(rmse, se / rmse if rmse > 0.0 else None)",
        "the rMSE's MC SE drops the delta method's factor 1/2",
    ),
    Mutant(
        "mean_se_with_ddof_0",
        "src/nccsim/harness.py",
        "ses = (values.std(axis=1, ddof=1) / math.sqrt(n)).tolist()",
        "ses = (values.std(axis=1, ddof=0) / math.sqrt(n)).tolist()",
        "a bias's MC SE uses the population SD instead of the sample SD",
    ),
    Mutant(
        "valid_strictly_below_budget",
        "src/nccsim/harness.py",
        "return self.n_failed <= MAX_FAILURE_FRACTION * self.n_replicates",
        "return self.n_failed < MAX_FAILURE_FRACTION * self.n_replicates",
        "a run with exactly 1 % failed replicates is marked invalid",
    ),
    Mutant(
        "continuation_counts_failed",
        "src/nccsim/harness.py",
        "continuation = _rate_statistics(continued[np.newaxis])[0]",
        "continuation = _rate_statistics(arrays.continued[np.newaxis])[0]",
        "the continuation frequency counts failed replicates",
    ),
    Mutant(
        "bootstrap_stream_key_0",
        "src/nccsim/harness.py",
        "_rng(scenario, master_seed, chunk, 1, group, seed)",
        "_rng(scenario, master_seed, chunk, 0, group, seed)",
        "a group's bootstrap resamples from another key than (chunk, 1, group, bootstrap seed)",
    ),
    Mutant(
        "unadjusted_wald_uses_separate_variance",
        "src/nccsim/adjusted.py",
        "model_based = model_based_variance(*config.cells, config.sigma)",
        "model_based = separate",
        "a continuing trial's unadjusted test uses the separate estimate's variance",
    ),
    Mutant(
        "rate_se_with_n_minus_1",
        "src/nccsim/harness.py",
        "Statistic(p, math.sqrt(p * (1.0 - p) / n))",
        "Statistic(p, math.sqrt(p * (1.0 - p) / (n - 1)))",
        "a rate's MC SE divides by n - 1",
    ),
    Mutant(
        "conditional_mask_counts_failed",
        "src/nccsim/harness.py",
        "conditional = marginal.compress(continued, axis=1)",
        "conditional = (arrays.estimates - scenario.config.theta2)"
        ".compress(arrays.continued, axis=1)",
        "the conditional bias, the conditional rMSE and n_continuing include failed replicates",
    ),
    Mutant(
        "conditional_bias_rows_reversed",
        "src/nccsim/harness.py",
        "_mean_statistics(conditional),",
        "_mean_statistics(conditional[::-1]),",
        "each method reports another method's conditional bias (the rows in reverse)",
    ),
    Mutant(
        "unavailable_test_over_the_whole_block",
        "src/nccsim/harness.py",
        "rates[(flags < 0).any(axis=1)] = np.nan",
        "rates[(flags < 0).any()] = np.nan",
        "one method without a test blanks the rejection rates of every method",
    ),
    Mutant(
        "resample_variance_with_ddof_1",
        "src/nccsim/adjusted.py",
        "return np.var(point.estimates[2:].reshape(-1, k, b), axis=-1)",
        "return np.var(point.estimates[2:].reshape(-1, k, b), axis=-1, ddof=1)",
        "the bootstrap variance divides by b - 1 instead of the resample count b",
    ),
    Mutant(
        "correction_times_1_05",
        "src/nccsim/bias.py",
        "out = inputs.rho * inputs.se1 * normal.hazard(gamma)",
        "out = 1.05 * inputs.rho * inputs.se1 * normal.hazard(gamma)",
        "the conditional bias, and so the bias correction, is 5 % too large",
    ),
    Mutant(
        "conditional_bias_as_marginal_over_continuation",
        "src/nccsim/bias.py",
        "out = inputs.rho * inputs.se1 * normal.hazard(gamma)",
        "continuation = normal.cdf(np.negative(gamma))\n"
        "    if np.any(continuation < 1e-12):\n"
        "        raise ValueError('continuation probability ~ 0; conditional bias undefined')\n"
        "    out = inputs.rho * inputs.se1 * normal.pdf(gamma) / continuation",
        "the conditional bias is the marginal bias over the continuation probability:"
        " it loses its last bits and is undefined deep in the tail",
    ),
    Mutant(
        "period2_control_resampled_from_y01",
        "src/nccsim/adjusted.py",
        "out[done, :, 2] = _resample_means(rng, y02[:, done], b).T",
        "out[done, :, 2] = _resample_means(rng, y01[:, done], b).T",
        "the period-2 control cell is resampled from the period-1 control cell",
    ),
    Mutant(
        "period2_resampled_from_the_neighbouring_trial",
        "src/nccsim/adjusted.py",
        "out[done, :, 3] = _resample_means(rng, y12[:, done], b).T",
        "out[done, :, 3] = _resample_means(rng, y12[:, done - 1], b).T",
        "cross-talk: a trial's accepted proposals are paired with the period-2 arm-1 cell"
        " of its neighbour in the group",
    ),
    Mutant(
        "look_against_period2_control",
        "src/nccsim/adjusted.py",
        "z11 = (m11 - m01) / config.period1_se",
        "z11 = (m11 - m02) / config.period1_se",
        "the interim look compares arm 1 with the period-2 control",
    ),
    Mutant(
        "continue_strictly_above_cutoff",
        "src/nccsim/adjusted.py",
        "return z11, z11 >= config.c1",
        "return z11, z11 > config.c1",
        "a trial whose interim statistic equals the cutoff stops",
    ),
    Mutant(
        "rho_with_n01_on_top",
        "src/nccsim/design.py",
        "return (1.0 / n02) / inv_total",
        "return (1.0 / n01) / inv_total",
        "the NCC weight puts the period-1 control's precision on top",
    ),
    Mutant(
        "period1_se_with_n02",
        "src/nccsim/design.py",
        "return period1_se(self.n01, self.n11, self.sigma)",
        "return period1_se(self.n02, self.n11, self.sigma)",
        "the interim SE uses the period-2 control count",
    ),
    Mutant(
        "i1_with_n02",
        "src/nccsim/design.py",
        "n01, n11, sigma = self.n01, self.n11, self.sigma",
        "n01, n11, sigma = self.n02, self.n11, self.sigma",
        "the interim information uses the period-2 control count",
    ),
    Mutant(
        "i2_control_with_n12",
        "src/nccsim/design.py",
        "1.0 / (n01 + n02)))",
        "1.0 / (n01 + n12)))",
        "the final information counts arm 1's period-2 cell as control",
    ),
    Mutant(
        "pooled_control_weights_n01_twice",
        "src/nccsim/theta1.py",
        "control = (n01 * m01 + n02 * m02) / (n01 + n02)",
        "control = (n01 * m01 + n01 * m02) / (n01 + n02)",
        "the pooled plug-in weights the period-2 control mean by n01",
    ),
    Mutant(
        "period1_plug_in_with_m02",
        "src/nccsim/theta1.py",
        "Theta1Method.PERIOD1: m11 - m01,",
        "Theta1Method.PERIOD1: m11 - m02,",
        "the period-1 plug-in subtracts the period-2 control mean",
    ),
    Mutant(
        "period2_plug_in_with_m01",
        "src/nccsim/theta1.py",
        "Theta1Method.PERIOD2: m12 - m02,",
        "Theta1Method.PERIOD2: m12 - m01,",
        "the period-2 plug-in subtracts the period-1 control mean",
    ),
    Mutant(
        "bootstrap_accepts_every_proposal",
        "src/nccsim/adjusted.py",
        "hit = interim_look(config, m01, m11)[1]",
        "hit = np.ones_like(m11, dtype=bool)",
        "the bootstrap no longer replays the futility rule",
    ),
    Mutant(
        "bootstrap_reads_the_next_row",
        "src/nccsim/harness.py",
        "trial_cells(scenario.config, draws, index % CHUNK, _rng(scenario, master_seed, index, 0))",
        "trial_cells(scenario.config, draws, (index + 1) % CHUNK, _rng(scenario, master_seed, index, 0))",
        "a replicate's bootstrap resamples the next replicate's cells",
    ),
    Mutant(
        "group_variances_to_its_first_rows",
        "src/nccsim/harness.py",
        "bootstrap[:, block[~lost]] = ",
        "bootstrap[:, block[: (~lost).sum()]] = ",
        "after a failure in a group, its variances land on the wrong replicates",
    ),
    Mutant(
        "unadjusted_estimate_in_separate_row",
        "src/nccsim/adjusted.py",
        "estimates[0, cont] = model_based",
        "estimates[1, cont] = model_based",
        "a continuing trial's unadjusted estimate is written to the separate row",
    ),
    Mutant(
        "resample_variances_from_rows_1_to_4",
        "src/nccsim/adjusted.py",
        "point.estimates[2:].reshape(-1, k, b)",
        "point.estimates[1:5].reshape(-1, k, b)",
        "the bootstrap variances are taken from the rows one method up",
    ),
    Mutant(
        "known_variance_rows_swapped",
        "src/nccsim/adjusted.py",
        "[[model_based], [separate]]",
        "[[separate], [model_based]]",
        "a continuing trial's unadjusted and separate tests swap their variances",
    ),
    Mutant(
        "umvue_lift_scaled_by_i1_squared",
        "src/nccsim/theta1.py",
        "math.sqrt((i2 - i1) / (i1 * i2))",
        "math.sqrt((i2 - i1) / (i1 * i1))",
        "cumvue's truncation lift is scaled by 1/i1 instead of 1/i2",
    ),
    Mutant(
        "umvue_cutoff_scaled_by_i1",
        "src/nccsim/theta1.py",
        "u = (c1 * math.sqrt(i2) - z12 * math.sqrt(i1))",
        "u = (c1 * math.sqrt(i1) - z12 * math.sqrt(i1))",
        "cumvue's lift is evaluated at the cutoff on the wrong information scale",
    ),
    Mutant(
        "replay_key_with_chunk_minus_1",
        "src/nccsim/harness.py",
        "chunk, row = divmod(replicate_index, CHUNK)",
        "chunk, row = divmod(replicate_index, CHUNK - 1)",
        "a replay runs the wrong chunk and row for its replicate",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def stale_texts(root: Path = ROOT) -> list[str]:
    """One message per mutant whose old text does not occur exactly once in
    its file under ``root``."""
    messages = []
    for mutant in CATALOGUE:
        count = (root / mutant.path).read_text().count(mutant.old)
        if count != 1:
            messages.append(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    return messages


def _apply(mutant: Mutant, dest: Path) -> None:
    path = dest / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def _tests_pass(mutant: Mutant | None) -> tuple[bool, float]:
    """Whether the tests pass on a copy with ``mutant`` applied (none for
    the unmutated copy), and how long they took."""
    with tempfile.TemporaryDirectory(prefix="nccsim-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            _apply(mutant, dest)
        env = {**os.environ, "PYTHONPATH": str(dest / "src")}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *PYTEST_ARGS], cwd=dest, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False, time.monotonic() - start
        return proc.returncode == 0, time.monotonic() - start


def main() -> int:
    stale = stale_texts()
    for message in stale:
        print(f"error: {message}", file=sys.stderr)
    if stale:
        return 2
    passed, seconds = _tests_pass(None)
    print(f"unmutated: {'pass' if passed else 'FAIL'} ({seconds:.0f} s)", flush=True)
    if not passed:
        return 2
    survivors = []
    for mutant in CATALOGUE:
        passed, seconds = _tests_pass(mutant)
        if not passed:
            verdict = "killed"
        elif mutant.equivalent:
            verdict = f"survived, equivalent: {mutant.equivalent}"
        else:
            verdict = "SURVIVED"
            survivors.append(mutant)
        print(f"{mutant.name}: {verdict} ({seconds:.0f} s) - {mutant.breaks}", flush=True)
    killed = len(CATALOGUE) - len(survivors)
    print(f"{killed} of {len(CATALOGUE)} mutants killed or equivalent")
    for mutant in survivors:
        print(f"survivor: {mutant.name} ({mutant.path}): {mutant.breaks}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

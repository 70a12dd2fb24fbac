"""The benchmark's workloads and the loops that time and trace them.

All three are batch workloads: one caller runs scenarios back to back in a
closed loop, with no arrival rate. A *cycle* is the unit of work that is
repeated until the time budget is spent:

* ``oc_point`` and ``oc_boot`` call ``harness.run_scenario`` once per design
  and hypothesis of a fixed slice of the ``table1`` grid. Cycle ``k`` gives
  every scenario the id suffix ``#k``, so each call has its own seed stream
  and a replay of cycle ``k`` repeats it exactly.
* ``grid_cli`` calls ``cli.main(["simulate", ...])`` on ``grid: table1``
  with a worker pool. Every cycle is the same command with the same seed, so
  all of them must write byte-identical results.

The benchmark's seed is the master seed the program receives; the program
gets nothing else besides the scenarios.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from nccsim import cli, harness
from nccsim.adjusted import BootstrapSettings

import gate
from spans import Tracer, resolve


@dataclass
class Cycle:
    """Result of one cycle of a workload."""

    wall: float  # seconds spent inside the program
    replicates: int  # attempted
    failed: int
    scenario_s: list[float]  # wall time of each scenario call
    outcomes: list[gate.Outcome]
    fingerprint: object  # equal for two runs of the same work
    cpu: float = 0.0  # user+sys seconds of this process and its reaped children
    child_cpu: float = 0.0  # the children's part of ``cpu``

    @property
    def continuing(self) -> int:
        return sum(o.n_continuing for o in self.outcomes)


@dataclass(frozen=True)
class SerialWorkload:
    """Scenario runs over a slice of ``table1``, one process, no pool."""

    name: str
    designs: tuple[str, ...]  # table1 ids without the hypothesis prefix
    replicates: int  # per scenario call
    bootstrap_b: int  # 0 disables the bootstrap
    trace_cycles: int  # cycles replayed under the tracer
    workers: int = 1
    min_cycles: int = 1

    def setup(self, work_dir: Path):
        bootstrap = BootstrapSettings(b=self.bootstrap_b) if self.bootstrap_b else None
        grid = {
            s.scenario_id: s
            for s in harness.scenario_grid(replicates=self.replicates, bootstrap=bootstrap)
        }
        return [grid[f"{h}:{d}"] for d in self.designs for h in harness.HYPOTHESES]

    def warm_up(self, scenarios, seed: int) -> None:
        harness.run_scenario(
            dataclasses.replace(scenarios[0], scenario_id="warm-up", replicates=2), seed
        )

    def cycle(self, scenarios, seed: int, index: int) -> Cycle:
        times, outcomes = [], []
        for base in scenarios:
            scenario = dataclasses.replace(base, scenario_id=f"{base.scenario_id}#{index}")
            t0 = time.perf_counter()
            oc = harness.run_scenario(scenario, seed)
            times.append(time.perf_counter() - t0)
            outcomes.append(gate.outcome(
                scenario.scenario_id, scenario.config, oc.n_replicates,
                oc.n_continuing, oc.n_failed, oc.valid, oc.stats,
            ))
        return Cycle(
            wall=sum(times),
            replicates=sum(s.replicates for s in scenarios),
            failed=sum(s.replicates for s in scenarios) - sum(o.n_ok for o in outcomes),
            scenario_s=times,
            outcomes=outcomes,
            fingerprint=tuple(outcomes),
        )

    def checks(self, cycles: list[Cycle]) -> list[gate.Check]:
        return gate.check_outcomes([o for c in cycles for o in c.outcomes])


@dataclass(frozen=True)
class GridState:
    plan: Path
    out_dir: Path
    configs: dict


@dataclass(frozen=True)
class GridWorkload:
    """The user's ``nccsim simulate`` command on the whole ``table1`` grid."""

    name: str
    replicates: int
    workers: int
    trace_cycles: int
    bootstrap_b: int = 0
    min_cycles: int = 2

    def setup(self, work_dir: Path) -> GridState:
        plan = work_dir / "plan.txt"
        plan.write_text(
            f"grid: table1\nreplicates: {self.replicates}\nbootstrap_b: {self.bootstrap_b}\n"
        )
        scenarios = cli.parse_config(plan)
        return GridState(plan, work_dir / "results", {s.scenario_id: s.config for s in scenarios})

    def warm_up(self, state: GridState, seed: int) -> None:
        pass

    def cycle(self, state: GridState, seed: int, index: int) -> Cycle:
        argv = [
            "simulate", "--config", str(state.plan), "--seed", str(seed),
            "--out", str(state.out_dir), "--workers", str(self.workers),
        ]
        times: list[float] = []
        with _timed(cli, "run_scenario", times), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"nccsim simulate exited with code {code}")
        csv_bytes = (state.out_dir / "results.csv").read_bytes()
        json_bytes = (state.out_dir / "results.json").read_bytes()
        results = json.loads(json_bytes)["results"]
        outcomes = [
            gate.outcome(
                r["scenario_id"], state.configs[r["scenario_id"]], r["n_replicates"],
                r["n_continuing"], r["n_failed"], r["valid"], r["methods"],
            )
            for r in results
        ]
        return Cycle(
            wall=wall,
            replicates=sum(r["n_replicates"] for r in results),
            failed=sum(r["n_failed"] for r in results),
            scenario_s=times,
            outcomes=outcomes,
            fingerprint={
                "results.csv": hashlib.sha256(csv_bytes).hexdigest(),
                "results.json": hashlib.sha256(json_bytes).hexdigest(),
            },
        )

    def checks(self, cycles: list[Cycle]) -> list[gate.Check]:
        # Every cycle repeats the same command, so only the first one's
        # replicates are independent draws.
        first = cycles[0].fingerprint
        same = sum(c.fingerprint == first for c in cycles)
        return gate.check_outcomes(cycles[0].outcomes) + [gate.Check(
            "same_seed_outputs_identical", same == len(cycles),
            f"{same} of {len(cycles)} invocations wrote results identical to the first",
        )]


WORKLOADS = {
    w.name: w
    for w in (
        SerialWorkload(
            "oc_point",
            designs=("alpha1=0.1", "alpha1=0.5", "alpha1=0.95", "r=10", "a=1/15", "lambda=0.15"),
            replicates=100,
            bootstrap_b=0,
            trace_cycles=4,
        ),
        SerialWorkload(
            "oc_boot",
            designs=("alpha1=0.5", "alpha1=0.95", "r=10"),
            replicates=10,
            bootstrap_b=200,
            trace_cycles=4,
        ),
        GridWorkload("grid_cli", replicates=200, workers=2, trace_cycles=1),
    )
}


@contextlib.contextmanager
def _timed(owner, attr: str, durations: list[float]):
    """Append the wall time of every call of ``owner.attr`` to ``durations``."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_cycle(workload, state, seed: int, index: int) -> Cycle:
    """Run one cycle and record the CPU time it used, pool workers included."""
    own = _cpu_seconds(resource.RUSAGE_SELF)
    children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    cycle = workload.cycle(state, seed, index)
    cycle.child_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - children
    cycle.cpu = _cpu_seconds(resource.RUSAGE_SELF) - own + cycle.child_cpu
    return cycle


#: Fewest scenario calls per run, so that at least ten lie above the p90.
MIN_SCENARIO_CALLS = 100


def run_cycles(workload, state, seed: int, seconds: float, min_cycles: int) -> list[Cycle]:
    """Run cycles back to back and stop before the next one would be
    projected to end past ``seconds``, but not before ``min_cycles`` cycles
    and ``MIN_SCENARIO_CALLS`` scenario calls."""
    cycles: list[Cycle] = []
    calls = 0
    start = time.perf_counter()
    while True:
        cycles.append(timed_cycle(workload, state, seed, len(cycles)))
        calls += len(cycles[-1].scenario_s)
        elapsed = time.perf_counter() - start
        if (
            len(cycles) >= min_cycles
            # A program with no timed scenario calls can never reach the minimum.
            and (calls >= MIN_SCENARIO_CALLS or calls == 0)
            and elapsed * (len(cycles) + 1) / len(cycles) > seconds
        ):
            return cycles


def _replicate_key(*args, **kwargs):
    try:
        return (args[0].scenario_id, int(args[2]))
    except (IndexError, AttributeError, TypeError, ValueError):
        return None


#: Traced boundaries: (layer name, module, attribute at the site the caller
#: looks it up). A name may have several sites; a site that no longer exists
#: is skipped and its layer reports zero calls.
SITES = (
    ("harness.run_scenario", "nccsim.harness", "run_scenario"),
    ("harness.run_scenario", "nccsim.cli", "run_scenario"),
    ("harness.collect_replicates", "nccsim.harness", "collect_replicates"),
    ("harness.run_replicate", "nccsim.harness", "run_replicate"),
    ("harness.summarize", "nccsim.harness", "summarize"),
    ("datagen.simulate_trial", "nccsim.harness", "simulate_trial"),
    ("datagen.drop_arm1_period2", "nccsim.datagen", "TrialDataset.drop_arm1_period2"),
    ("estimators.interim_z", "nccsim.harness", "interim_z"),
    ("estimators.model_based_estimate", "nccsim.adjusted", "model_based_estimate"),
    ("estimators.separate_estimate", "nccsim.adjusted", "separate_estimate"),
    ("theta1.estimate_theta1", "nccsim.adjusted", "estimate_theta1"),
    ("adjusted.unadjusted_test", "nccsim.harness", "unadjusted_test"),
    ("adjusted.separate_test", "nccsim.harness", "separate_test"),
    ("adjusted.conditional_bias_estimate", "nccsim.adjusted", "conditional_bias_estimate"),
    ("adjusted.bootstrap_variances", "nccsim.harness", "bootstrap_variances"),
    ("normal.quantile", "nccsim.normal", "quantile"),
    ("cli.main", "nccsim.cli", "main"),
    ("cli.parse_config", "nccsim.cli", "parse_config"),
    ("cli.emit_results", "nccsim.cli", "emit_results"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in SITES))


def traced_cycles(workload, state, seed: int) -> tuple[list[Cycle], Tracer, list[str]]:
    """Replay cycles ``0 .. trace_cycles - 1`` with every site wrapped.

    Returns the cycles, the tracer holding their spans (its wrappers already
    removed) and the sites that could not be found.
    """
    missing = []
    with Tracer() as tracer:
        for name, module, attr in SITES:
            site = resolve(module, attr)
            if site is None:
                missing.append(f"{module}.{attr}")
                continue
            key_fn = _replicate_key if name == "harness.run_replicate" else None
            tracer.wrap(*site, name, key_fn=key_fn)
        cycles = [timed_cycle(workload, state, seed, k) for k in range(workload.trace_cycles)]
    return cycles, tracer, missing

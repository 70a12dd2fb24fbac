"""nccsim benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload oc_point --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout. With
``--trace 0`` the command prints the end-to-end metrics; with ``--trace 1``
it repeats the untraced measurement, replays its first cycles with every
layer boundary wrapped, and prints the per-layer metrics instead. Either way
it checks the simulated operating characteristics (see ``gate.py``), prints
run facts, check results and a metric table, writes the same record to
``perfbench/out/``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count replicates. The exit code is 0 when every
check passes, 1 when one fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import self_times, union_length, write_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from ``.git``; ``unknown`` elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setup(workload_name: str, work_dir: Path) -> list[float]:
    """Time ``SETUP_SAMPLES`` cold set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload_name, str(work_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    # ru_maxrss is in KiB on Linux; for children it is the largest one's.
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def end_to_end_metrics(cycles, peak_mb: float, setup: list[float]) -> dict:
    """Per-replicate costs are medians over cycles, so that a burst of load
    from elsewhere on the machine moves one cycle rather than the result."""
    completed = [max(c.replicates - c.failed, 1) for c in cycles]
    times_ms = sorted(t * 1e3 for c in cycles for t in c.scenario_s)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "us_per_replicate": (statistics.median(
            c.wall / n * 1e6 for c, n in zip(cycles, completed)), "us"),
        "scenario_ms_p50": (statistics.median(times_ms), "ms"),
        "scenario_ms_p90": (percentile(times_ms, 90), "ms"),
        "cpu_us_per_replicate": (statistics.median(
            c.cpu / n * 1e6 for c, n in zip(cycles, completed)), "us"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def per_layer_metrics(workload, layers, untraced, traced, tracer) -> dict:
    """Per-layer calls, self time and share of the traced cycles, plus the
    derived ratios; ``untraced`` holds the same cycles run without tracing."""
    spans = tracer.spans()
    calls = dict.fromkeys(layers, 0)
    own = dict.fromkeys(layers, 0.0)
    inclusive = dict.fromkeys(layers, 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own[span.name] += self_s
        inclusive[span.name] += span.end - span.start
    wall = sum(c.wall for c in traced)
    reference = sum(c.wall for c in untraced[: len(traced)])
    replicates = sum(c.replicates for c in traced)
    ok = sum(c.replicates - c.failed for c in traced)

    metrics = {}
    for name in layers:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_us"] = (own[name] / calls[name] * 1e6 if calls[name] else 0.0, "us")
        metrics[f"{name}.share"] = (own[name] / wall, "ratio")
    boot_calls = calls["adjusted.bootstrap_variances"]
    resamples = workload.bootstrap_b * boot_calls
    child_cpu = sum(c.child_cpu for c in traced)
    collect_wall = inclusive["harness.collect_replicates"]
    metrics.update({
        "normal.quantile.calls_per_replicate": (calls["normal.quantile"] / replicates, "count"),
        "adjusted.bootstrap.resamples": (resamples, "count"),
        "adjusted.bootstrap.us_per_resample": (
            inclusive["adjusted.bootstrap_variances"] / resamples * 1e6 if resamples else 0.0, "us"),
        "harness.pool.busy_frac": (
            child_cpu / (collect_wall * workload.workers)
            if workload.workers > 1 and collect_wall > 0 else 0.0, "ratio"),
        "harness.continued_frac": (sum(c.continuing for c in traced) / max(ok, 1), "ratio"),
        "harness.failed_frac": ((replicates - ok) / replicates, "ratio"),
        "trace.overhead_frac": ((wall - reference) / reference, "ratio"),
        "trace.unattributed_frac": (
            1.0 - union_length((s.start, s.end) for s in spans if s.parent < 0) / wall, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    if not (SRC / "nccsim" / "__init__.py").is_file():
        print(f"error: no nccsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import gate
    import nccsim
    from workloads import LAYERS, WORKLOADS, run_cycles, traced_cycles

    if not Path(nccsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nccsim was imported from {nccsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{tag}-") as work:
        work_dir = Path(work)
        state = workload.setup(work_dir)
        workload.warm_up(state, args.seed)
        min_cycles = max(workload.min_cycles, workload.trace_cycles if args.trace else 0)
        start = time.perf_counter()
        cycles = run_cycles(workload, state, args.seed, args.seconds, min_cycles)
        measured_s = time.perf_counter() - start
        if not any(c.scenario_s for c in cycles):
            print("error: no scenario call was timed", file=sys.stderr)
            return 1
        checks = workload.checks(cycles)
        if args.trace:
            traced, tracer, missing = traced_cycles(workload, state, args.seed)
            metrics = per_layer_metrics(workload, LAYERS, cycles, traced, tracer)
            replayed = sum(t.fingerprint == c.fingerprint for t, c in zip(traced, cycles))
            checks.append(gate.Check(
                "traced_replay_identical", replayed == len(traced),
                f"{replayed} of {len(traced)} traced cycles repeat their untraced results",
            ))
            write_csv(tracer.spans(), OUT / f"{tag}-spans.csv.gz")
        else:
            # The set-up probes are children too: read the peak before them.
            peak_mb = peak_rss_mb()
            metrics = end_to_end_metrics(cycles, peak_mb, time_setup(workload.name, work_dir))
            missing = []
            traced = []

    attempted = sum(c.replicates for c in cycles + traced)
    failed = sum(c.failed for c in cycles + traced)
    times = [t for c in cycles for t in c.scenario_s]
    p90 = percentile(sorted(times), 90)
    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": round(measured_s, 3),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "workers": workload.workers,
        "bootstrap_b": workload.bootstrap_b,
        "replicates_per_scenario_call": workload.replicates,
        "cycles": len(cycles),
        "replicates": sum(c.replicates for c in cycles),
        "failed_frac": sum(c.failed for c in cycles) / sum(c.replicates for c in cycles),
        "percentile_samples": len(times),
        "samples_above_p90": sum(t > p90 for t in times),
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "results_sha256": cycles[0].fingerprint if isinstance(cycles[0].fingerprint, dict) else None,
        "trace_cycles": len(traced),
        "missing_sites": missing,
    }
    correct = all(c.ok for c in checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"facts": facts, "checks": [dataclasses.asdict(c) for c in checks], **result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("facts " + json.dumps(facts))
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    print(f"metric failed_frac = {facts['failed_frac']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campus-churn --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Their times are wall clock scaled to a fixed host speed (``speed.py``);
the lines before the result print the scale factor.
``--trace 1`` runs the workload twice from fresh set-ups — untraced,
then with the span recorder of ``tracer.py`` installed, each for half of
``--seconds`` — and prints the per-layer metrics, the tracing overhead,
and whether both runs produced the same verdicts.  ``--workload all``
runs every workload, each in a process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
when a result was printed, 2 when the program under test cannot be
imported (nothing is printed then).

Noise hygiene (each rule removes a source of run-to-run spread):

* one process per workload, so one workload's caches and heap never
  count against another's time or ``peak_rss_mb``;
* service-repeat runs fixed-size episodes, each on a fresh service:
  the analyzer's caches grow with every op, and on an ever-growing heap
  the collector's full passes (a fifth of a 30 s run) would grow with
  the host's speed;
* every import happens before any clock starts; ``setup_s`` runs from
  the first call into ``repro`` to the first timed op and is the median
  of several set-ups in the run;
* a shared host's speed moves from run to run, so every time is scaled
  by the host speed that a reference kernel, timed between every two
  ops, measured in the same run (``speed.py``);
* ``peak_rss_mb`` is read when the fixed admit prefix completes, so it
  covers the same work on a fast host as on a slow one;
* no percentile from too few samples: a p90 needs 10 samples beyond it,
  so at least 100 (``stats.percentile`` refuses otherwise, and every
  workload's admit prefix is at least that long);
* clients and connections never exceed the 2 cores of the machine the
  bounds were set on (service-repeat runs 2 clients, the others 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # noqa: F401
except ImportError as exc:
    print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.  paper-u09
#: sets up once per trajectory and service-repeat once per episode
#: instead.
SETUPS = 5
#: Pinned verdict digests of the admit prefix for the default seed.
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 1

Metrics = Dict[str, Tuple[float, str]]


def scaled_rate(phase: workloads.Phase) -> float:
    """Ops per second of wall time scaled to the nominal host speed."""
    return phase.ops / (phase.wall_s * phase.gauge.scale)


def end_to_end(phase: workloads.Phase) -> Metrics:
    record = phase.record
    scale = phase.gauge.scale
    ms = 1000.0 * scale
    rss_kib = record.prefix_rss_kib or workloads.peak_rss_kib()
    return {
        "setup_s": (stats.median(phase.setup_s) * scale, "s"),
        "ops_per_s": (scaled_rate(phase), "1/s"),
        "admit_p50_ms": (stats.percentile(record.admit_s, 0.5) * ms, "ms"),
        "admit_p90_ms": (stats.percentile(record.admit_s, 0.9) * ms, "ms"),
        "release_p50_ms": (stats.percentile(record.release_s, 0.5) * ms, "ms"),
        "admit_fraction": (
            stats.ratio(record.prefix_admitted, record.prefix_admits),
            "fraction",
        ),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def check_pin(name: str, seed: int, phase: workloads.Phase) -> None:
    """For the default seed, the admit prefix must match the pinned digest."""
    if seed != DEFAULT_SEED:
        return
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    expected = pins.get(name)
    digest = stats.decision_digest(phase.record.prefix)
    if expected is not None and digest != expected:
        phase.record.fail(f"verdict digest {digest[:12]} != pinned {expected[:12]}")


def run_untraced(name: str, seed: int, seconds: float) -> Tuple[workloads.Phase, Metrics]:
    phase = workloads.WORKLOADS[name].run(seed, seconds, SETUPS, None)
    check_pin(name, seed, phase)
    try:
        return phase, end_to_end(phase)
    except ValueError as exc:  # too few samples for a percentile
        phase.record.fail(str(exc))
        return phase, {}


def run_traced(name: str, seed: int, seconds: float) -> Tuple[workloads.Phase, Metrics]:
    workload = workloads.WORKLOADS[name]
    plain = workload.run(seed, seconds / 2, 1, None)
    tracer = Tracer()
    traced = workload.run(seed, seconds / 2, 1, tracer)
    tracer.write(os.path.join(workloads.SCRATCH, f"spans-{name}-seed{seed}.jsonl"))
    check_pin(name, seed, plain)
    record = traced.record
    record.attempted += plain.record.attempted
    record.failed += plain.record.failed
    record.problems += plain.record.problems
    if stats.decision_digest(traced.record.prefix) != stats.decision_digest(
        plain.record.prefix
    ):
        record.fail("traced verdicts differ from untraced verdicts")
    metrics = layer_metrics(tracer, traced.counters, traced.wall_s)
    plain_rate = scaled_rate(plain)
    traced_rate = scaled_rate(traced)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_fraction"] = (1.0 - traced_rate / plain_rate, "fraction")
    return traced, metrics


def report(phase: workloads.Phase, metrics: Metrics) -> Dict[str, Any]:
    record = phase.record
    n_admit = len(record.admit_s)
    print(
        f"samples: admits={n_admit} (beyond p90: {n_admit - math.ceil(0.9 * n_admit)}) "
        f"releases={len(record.release_s)} prefix_admits={record.prefix_admits} "
        f"digest={stats.decision_digest(record.prefix)} "
        f"setups={['%.3f' % s for s in phase.setup_s]}"
    )
    if phase.gauge.samples:
        print(
            f"speed: {len(phase.gauge.samples)} kernel timings, "
            f"mean {phase.gauge.spent_s / len(phase.gauge.samples) * 1e6:.1f} us; "
            f"times below are wall clock x {phase.gauge.scale:.4f}; "
            f"unscaled ops_per_s {phase.ops / phase.wall_s:.6g}"
        )
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<44} {value:>14.6g} {unit}")
    for problem in record.problems[:20]:
        print(f"  FAILED: {problem}")
    return {
        "correct": record.failed == 0 and bool(metrics),
        "attempted": max(1, record.attempted),
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload in a child process of its own."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            combined["correct"] = False
            combined["failed"] += 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        os.makedirs(workloads.SCRATCH, exist_ok=True)
        scratch_before = set(os.listdir(workloads.SCRATCH))
        try:
            if args.trace:
                phase, metrics = run_traced(args.workload, args.seed, args.seconds)
            else:
                phase, metrics = run_untraced(args.workload, args.seed, args.seconds)
        finally:
            for entry in set(os.listdir(workloads.SCRATCH)) - scratch_before:
                if entry.startswith("journal-"):
                    shutil.rmtree(os.path.join(workloads.SCRATCH, entry), ignore_errors=True)
        result = report(phase, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    status = main(sys.argv[1:])
    print(f"perfbench: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(status)

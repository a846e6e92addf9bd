"""Tracked CAC determinism gate: ``python -m repro bench``.

Speed is measured by ``perfbench/`` (see ``BENCHMARK.json``); this suite
measures none.  Its JSON output (``BENCH_cac.json``) is committed, and
``--check`` compares a fresh run against it field by field:

* **decision trajectory** — a fixed admit/release script over a standing
  population on 8 rings (four disjoint ring-pair interference
  components, seven connections each).  Every verdict, delay bound,
  minimum-need allocation (``repr``-exact) and probe count must match.
* **incremental ≡ full** — the same population driven through repeated
  admit/release of one probe connection, once with the incremental engine
  and once with full recomputation; the two controllers' decisions must
  be identical field by field.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.config import CACConfig, NetworkConfig, build_network
from repro.core import AdmissionController
from repro.network.connection import ConnectionSpec
from repro.traffic import DualPeriodicTraffic

#: Light per-connection load so each ring can hold a standing population
#: of seven connections.
MACRO_TRAFFIC = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)
#: The standing population of both gates: 8 rings, 7 connections per pair.
N_RINGS = 8
PER_GROUP = 7
#: Admit/release rounds of the incremental-vs-full comparison.
IDENTITY_ROUNDS = 10


# ----------------------------------------------------------------------
# Standing population
# ----------------------------------------------------------------------

def _macro_controller(incremental: bool) -> AdmissionController:
    topo = build_network(NetworkConfig(n_rings=N_RINGS))
    cac = AdmissionController(
        topo, cac_config=CACConfig(beta=0.5, incremental=incremental)
    )
    k = 0
    # Disjoint ring pairs (1,2), (3,4), ... — each pair is one
    # interference component the probe traffic never touches (except the
    # first, which the probe below shares).
    for a in range(1, N_RINGS, 2):
        b = a + 1
        for j in range(PER_GROUP):
            spec = ConnectionSpec(
                f"bg{k}",
                f"host{a}-{(j % 4) + 1}",
                f"host{b}-{((j + 1) % 4) + 1}",
                MACRO_TRAFFIC,
                0.09,
            )
            res = cac.request(spec)
            assert res.admitted, f"macro background bg{k} must admit"
            k += 1
    return cac


def macro_decisions_identical() -> bool:
    """Repeated admit/release of one probe: incremental ≡ full recompute.

    Full recomputation re-analyzes every component on every probe; the
    incremental engine touches only the dirty one.  Both must reach the
    same verdict, bound, minimum-need allocation and probe count.
    """
    decisions: List[List[tuple]] = []
    for incremental in (False, True):
        cac = _macro_controller(incremental)
        trail: List[tuple] = []
        for r in range(IDENTITY_ROUNDS):
            cid = f"probe-{r}"
            res = cac.request(
                ConnectionSpec(cid, "host1-2", "host2-3", MACRO_TRAFFIC, 0.09)
            )
            if res.admitted:
                cac.release(cid)
            trail.append((res.admitted, res.delay_bound, res.h_min_need, res.n_probes))
        decisions.append(trail)
    return decisions[0] == decisions[1]


# ----------------------------------------------------------------------
# Decision trajectory: the committed, gated part of the payload
# ----------------------------------------------------------------------

#: Fixed admit/release script over the standing population.
_TRAJECTORY_STEPS: Tuple[Tuple[str, ...], ...] = (
    ("admit", "tr-1", "host1-2", "host2-3", "0.09"),
    ("admit", "tr-2", "host3-1", "host4-2", "0.09"),
    # Sub-2-TTRT deadline: hopeless, rejected before delay analysis.
    ("admit", "tr-hopeless", "host1-2", "host2-3", "0.012"),
    ("release", "tr-1"),
    ("admit", "tr-3", "host5-4", "host6-1", "0.09"),
    ("admit", "tr-4", "host1-2", "host2-3", "0.09"),
    ("release", "tr-2"),
    ("release", "tr-3"),
    ("release", "tr-4"),
)


def run_decision_trajectory() -> Dict[str, object]:
    """Bit-exact decision trajectory on a fixed scenario.

    Floats are rendered with ``repr`` so the committed JSON round-trips
    exactly; any numerical drift in the admission hot path shows up as a
    field-level diff under ``--check``.
    """
    cac = _macro_controller(True)
    decisions: List[Dict[str, object]] = []
    for step in _TRAJECTORY_STEPS:
        if step[0] == "release":
            cac.release(step[1])
            decisions.append({"op": "release", "conn_id": step[1]})
            continue
        _, cid, src, dst, deadline = step
        res = cac.request(
            ConnectionSpec(cid, src, dst, MACRO_TRAFFIC, float(deadline))
        )
        decisions.append(
            {
                "op": "admit",
                "conn_id": cid,
                "admitted": res.admitted,
                "delay_bound": (
                    repr(res.delay_bound)
                    if res.delay_bound is not None
                    else None
                ),
                "h_min_need": (
                    [repr(res.h_min_need[0]), repr(res.h_min_need[1])]
                    if res.h_min_need is not None
                    else None
                ),
                "n_probes": res.n_probes,
            }
        )
    return {
        "scenario": {"n_rings": N_RINGS, "per_group": PER_GROUP},
        "decisions": decisions,
    }


def check_cac_payload(
    current: Dict[str, object], committed: Dict[str, object]
) -> List[str]:
    """Compare the gated (deterministic) parts of two CAC payloads.

    Latency numbers are informational and never compared; the decision
    trajectory and the incremental-vs-full identity bit are the contract.
    """
    problems: List[str] = []
    for payload, who in ((current, "current"), (committed, "committed")):
        if not payload.get("macro_decisions_identical"):
            problems.append(f"{who}: macro decisions diverge (incremental vs full)")
    cur = current.get("decision_trajectory")
    com = committed.get("decision_trajectory")
    if not isinstance(com, dict) or "decisions" not in com:
        problems.append("committed payload has no decision_trajectory (regenerate)")
        return problems
    assert isinstance(cur, dict)
    cur_steps = cur["decisions"]
    com_steps = com["decisions"]
    assert isinstance(cur_steps, list) and isinstance(com_steps, list)
    if len(cur_steps) != len(com_steps):
        problems.append(
            f"trajectory length {len(cur_steps)} != committed {len(com_steps)}"
        )
        return problems
    for i, (a, b) in enumerate(zip(cur_steps, com_steps)):
        if a != b:
            keys = sorted(set(a) | set(b))
            diffs = ", ".join(
                f"{k}: {a.get(k)!r} != {b.get(k)!r}"
                for k in keys
                if a.get(k) != b.get(k)
            )
            problems.append(f"trajectory step {i} diverged ({diffs})")
    return problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_benches(quick: bool = False) -> Dict[str, object]:
    """The gated payload; ``quick`` is recorded but changes no work."""
    return {
        "benchmark": "repro-cac",
        "quick": quick,
        "macro_decisions_identical": macro_decisions_identical(),
        "decision_trajectory": run_decision_trajectory(),
    }


def format_report(payload: Dict[str, object]) -> str:
    trajectory = payload["decision_trajectory"]
    assert isinstance(trajectory, dict)
    lines = ["CAC determinism gate", ""]
    for step in trajectory["decisions"]:
        if step["op"] == "release":
            lines.append(f"  release {step['conn_id']}")
        else:
            lines.append(
                f"  admit   {step['conn_id']:12s} admitted={step['admitted']} "
                f"bound={step['delay_bound']} probes={step['n_probes']}"
            )
    lines.append("")
    lines.append(
        "  macro decisions identical (incremental vs full): "
        + ("yes" if payload["macro_decisions_identical"] else "NO — BUG")
    )
    return "\n".join(lines)


def _write_json(payload: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\n[written to {path}]")


def _run_cac_suite(
    quick: bool, output: Optional[str], check_path: Optional[str]
) -> int:
    payload = run_benches(quick=quick)
    print(format_report(payload))
    problems: List[str] = []
    if check_path is not None:
        with open(check_path) as fh:
            committed = json.load(fh)
        problems = check_cac_payload(payload, committed)
        for problem in problems:
            print(f"  FAIL: {problem}")
    if output != "-":
        _write_json(payload, output or "BENCH_cac.json")
    if problems or not payload["macro_decisions_identical"]:
        return 1
    return 0


def _run_envelope_suite(
    quick: bool, output: Optional[str], check_path: Optional[str]
) -> int:
    from repro import bench_envelopes

    committed = None
    if check_path is not None:
        with open(check_path) as fh:
            committed = json.load(fh)
    payload, problems = bench_envelopes.run_and_check(
        quick=quick, committed=committed
    )
    print(bench_envelopes.format_report(payload))
    for problem in problems:
        print(f"  FAIL: {problem}")
    if output != "-":
        _write_json(payload, output or "BENCH_envelopes.json")
    return 1 if problems else 0


def _run_service_suite(
    quick: bool, output: Optional[str], check_path: Optional[str]
) -> int:
    # Imported lazily: the service package pulls in asyncio machinery the
    # plain CAC benches never need.
    from repro.service import bench as service_bench

    if check_path is not None:
        payload, problems = service_bench.run_and_check(quick, check_path)
    else:
        payload, problems = service_bench.run_service_bench(quick), []
    for problem in problems:
        print(f"  FAIL: {problem}")
    if output != "-":
        _write_json(payload, output or "BENCH_service.json")
    if check_path is not None and not problems:
        print("  service bench check: OK")
    return 1 if problems else 0


def _run_lint_suite(
    quick: bool, output: Optional[str], check_path: Optional[str]
) -> int:
    # Imported lazily: the bench module is also what the lint CI job
    # runs, and it should not pay for the CAC machinery above.
    from repro.lint import bench as lint_bench

    if check_path is not None:
        payload, problems = lint_bench.run_and_check(quick, check_path)
    else:
        payload, problems = lint_bench.run_lint_bench(quick), []
    print(lint_bench.format_report(payload))
    for problem in problems:
        print(f"  FAIL: {problem}")
    if output != "-":
        _write_json(payload, output or "BENCH_lint.json")
    if check_path is not None and not problems:
        print("  lint bench check: OK")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Run the tracked determinism gates (CAC, envelopes, service, "
            "lint) and write their committed JSON artifacts.  Speed is "
            "measured by perfbench/run.py, not here."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer recovery offsets, ladder steps and lint rounds "
        "(service and lint suites; the cac and envelopes gates are fixed)",
    )
    parser.add_argument(
        "--suite",
        choices=("cac", "envelopes", "service", "lint", "all"),
        default="cac",
        help="which bench suite to run (default: cac)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help=(
            "JSON output path (default BENCH_<suite>.json; '-' to skip)"
        ),
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        default=None,
        help=(
            "committed BENCH_<suite>.json to compare the deterministic "
            "(gated) fields against; any divergence fails the run"
        ),
    )
    args = parser.parse_args(argv)
    if args.check is not None and args.suite == "all":
        parser.error("--check needs a single --suite (the artifacts differ)")
    rc = 0
    if args.suite in ("cac", "all"):
        out = args.output if args.suite == "cac" else None
        rc |= _run_cac_suite(args.quick, out, args.check)
    if args.suite in ("envelopes", "all"):
        out = args.output if args.suite == "envelopes" else None
        rc |= _run_envelope_suite(args.quick, out, args.check)
    if args.suite == "service":
        rc |= _run_service_suite(args.quick, args.output, args.check)
    if args.suite == "lint":
        rc |= _run_lint_suite(args.quick, args.output, args.check)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Tracked envelope-algebra gate: ``python -m repro bench --suite envelopes``.

A figure-7-shaped slice (three 20-request admission simulations at
beta = 0, 0.5, 1) whose decision trajectory — admitted / rejected counts
and the admission probability, exactly — is committed with the JSON.  In
exact mode (the default ``AnalysisConfig``) the trajectory is
bit-reproducible, so CI re-runs it and fails on any divergence from the
committed file (``--check``).  The envelope kernels' speed is measured by
``perfbench/`` (``--trace 1`` reports per-kernel calls and time).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.connection_sim import ConnectionSimConfig, ConnectionSimulator

#: The beta sweep (figure 7's x-axis, coarsened).
MACRO_BETAS = (0.0, 0.5, 1.0)
MACRO_UTILIZATION = 0.6
MACRO_REQUESTS = 20
MACRO_WARMUP = 4
MACRO_SEED = 1


def run_macro_bench() -> Dict[str, Any]:
    """Three small figure-7 points (beta sweep); exact-mode trajectory.

    The returned ``trajectory`` is deterministic in exact mode: the same
    seed, workload, and analysis produce bit-identical admission decisions,
    so CI compares it field-by-field against the committed JSON.
    """
    trajectory: List[Dict[str, Any]] = []
    for beta in MACRO_BETAS:
        cfg = ConnectionSimConfig(
            utilization=MACRO_UTILIZATION,
            beta=beta,
            seed=MACRO_SEED,
            n_requests=MACRO_REQUESTS,
            warmup_requests=MACRO_WARMUP,
        )
        res = ConnectionSimulator(cfg).run()
        m = res.metrics
        trajectory.append(
            {
                "beta": beta,
                "utilization": MACRO_UTILIZATION,
                "n_requests": m.n_requests,
                "n_admitted": m.n_admitted,
                "n_rejected_cac": m.n_rejected_cac,
                # Full float repr — exact-mode runs must reproduce this bit
                # for bit; any drift means the refactor changed a decision.
                "admission_probability": repr(res.admission_probability),
            }
        )
    return {
        "scenario": (
            f"figure7-shaped: U={MACRO_UTILIZATION}, "
            f"{MACRO_REQUESTS} requests, seed={MACRO_SEED}"
        ),
        "trajectory": trajectory,
    }


def check_macro_trajectory(
    current: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Field-by-field divergence list between two macro payloads."""
    problems: List[str] = []
    cur = current.get("trajectory")
    ref_traj = committed.get("trajectory")
    if not isinstance(cur, list) or not isinstance(ref_traj, list):
        return ["macro payload missing 'trajectory' list"]
    if len(cur) != len(ref_traj):
        return [f"trajectory length {len(cur)} != committed {len(ref_traj)}"]
    for i, (got, want) in enumerate(zip(cur, ref_traj)):
        for field in (
            "beta",
            "utilization",
            "n_requests",
            "n_admitted",
            "n_rejected_cac",
            "admission_probability",
        ):
            if got.get(field) != want.get(field):
                problems.append(
                    f"trajectory[{i}].{field}: {got.get(field)!r} != "
                    f"committed {want.get(field)!r}"
                )
    return problems


# ----------------------------------------------------------------------
# Entry point (dispatched from repro.bench)
# ----------------------------------------------------------------------

def run_benches(quick: bool = False) -> Dict[str, Any]:
    """The gated payload; ``quick`` is recorded but changes no work."""
    return {
        "benchmark": "repro-envelopes",
        "quick": quick,
        "macro": run_macro_bench(),
    }


def format_report(payload: Dict[str, Any]) -> str:
    macro = payload["macro"]
    lines = [f"Envelope gate — macro ({macro['scenario']})"]
    for point in macro["trajectory"]:
        lines.append(
            f"    beta={point['beta']}: {point['n_admitted']}/{point['n_requests']}"
            f" admitted, AP={point['admission_probability']}"
        )
    return "\n".join(lines)


def run_and_check(
    quick: bool = False, committed: Optional[Dict[str, Any]] = None
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the suite; return (payload, problems) where problems fail CI."""
    payload = run_benches(quick=quick)
    problems: List[str] = []
    if committed is not None:
        problems = check_macro_trajectory(payload["macro"], committed.get("macro", {}))
    return payload, problems

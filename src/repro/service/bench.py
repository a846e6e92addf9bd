"""The admission-service bench: churn, overload, kill-and-restore.

Three gated phases, all bit-reproducible (the service's speed is
measured by ``perfbench/``, workload ``service-repeat``):

1. **trajectory** (always the same fixed scenario, gated): a scripted
   admit/release/reject/error workload through a fully deterministic
   service (inline decisions, tick clock, inert ladder, exact analysis).
   Every verdict, delay bound (``repr``-exact) and the final recovery
   signature must match the committed ``BENCH_service.json``.
2. **recovery** (gated booleans): the same workload killed at several
   journal offsets — plus a torn journal tail and a mid-run node failure
   — must restore bit-identically (prefix signature) and, continued to
   the end, converge to the uninterrupted final signature, with zero
   ledger leaks.
3. **ladder** (gated booleans): drive decision latency through the
   service's injectable clock — a step clock whose tick we inflate to
   simulate overload and shrink to simulate recovery — and verify the
   ladder walks up to FROZEN and back down to EXACT through the real
   measurement path.  Synthetic time makes the gate machine-independent.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    CACConfig,
    NetworkConfig,
    ServiceConfig,
    build_network,
)
from repro.network.connection import ConnectionSpec
from repro.scenario.spec import ConnectionEntry, ScenarioSpec
from repro.service.degrade import EXACT
from repro.service.server import AdmissionService, ServiceResponse
from repro.traffic.dual_periodic import DualPeriodicTraffic

#: Fixed scenario of the gated phases: 6 rings, pairs (1,2)/(3,4)/(5,6).
N_RINGS = 6
PER_GROUP = 4
#: Background source: rho = 4 Mbps dual-periodic (fits many per ring).
BG = (60_000.0, 0.015, 30_000.0, 0.005)
BG_DEADLINE = 0.09
#: An unstable monster (rho = 133 Mbps > ring bandwidth): always rejected.
REJECT_TRAFFIC = (2_000_000.0, 0.015, 1_000_000.0, 0.005)

#: One scripted operation: ("admit", conn_id, src, dst, deadline, traffic4)
#: | ("release", conn_id) | ("fail", node) | ("repair", node).
Op = Tuple[Any, ...]


class TickClock:
    """Deterministic clock: every read advances by a fixed step."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def deterministic_config(snapshot_every: int = 7) -> ServiceConfig:
    """Service knobs for bit-reproducible runs: ladder inert."""
    return ServiceConfig(
        queue_capacity=512,
        default_timeout=1e6,
        snapshot_every=snapshot_every,
        degrade_hi=1e9,
        degrade_lo=1.0,
        seed=1,
    )


def scenario_spec() -> ScenarioSpec:
    """The bench's fixed network and standing population as a scenario spec.

    The bench (and the soak's default mode) is a *spec producer*: the
    topology and the background admissions come from this one declarative
    object, and ``python -m repro scenario replay`` can run the same
    standing population through the differential invariant suite.  The
    op-level parts of the bench (releases, duplicate admits, scripted node
    faults) stay in :func:`trajectory_ops` — a spec describes load, not an
    interactive session.
    """
    c1, p1, c2, p2 = BG
    traffic = DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=p2)
    entries = []
    for a, b in ((1, 2), (3, 4), (5, 6)):
        for j in range(PER_GROUP):
            entries.append(
                ConnectionEntry(
                    conn_id=f"bg{a}-{j}",
                    source_host=f"host{a}-{(j % 4) + 1}",
                    dest_host=f"host{b}-{((j + 1) % 4) + 1}",
                    traffic=traffic,
                    deadline=BG_DEADLINE,
                )
            )
    return ScenarioSpec(
        name="service-bench",
        topology=NetworkConfig(n_rings=N_RINGS, hosts_per_ring=4),
        connections=tuple(entries),
    )


def _network_config() -> NetworkConfig:
    return scenario_spec().topology


def _admit(
    conn_id: str,
    src: str,
    dst: str,
    deadline: float = BG_DEADLINE,
    traffic: Tuple[float, float, float, float] = BG,
) -> Op:
    return ("admit", conn_id, src, dst, deadline, traffic)


def trajectory_ops(with_faults: bool = False) -> List[Op]:
    """The fixed workload of the gated phases.

    Exercises every verdict: background admissions per ring pair, a
    guaranteed rejection, shard-bridging cross traffic, a duplicate admit
    (ERROR), an unknown release (UNKNOWN), and admit/release churn.  With
    ``with_faults`` a node failure displaces group 3 mid-run and is
    repaired before the end.
    """
    ops: List[Op] = []
    pairs = [(1, 2), (3, 4), (5, 6)]
    for a, b in pairs:
        for j in range(PER_GROUP):
            ops.append(
                _admit(
                    f"bg{a}-{j}",
                    f"host{a}-{(j % 4) + 1}",
                    f"host{b}-{((j + 1) % 4) + 1}",
                )
            )
    ops.append(
        _admit("reject-1", "host1-1", "host2-1", 0.05, REJECT_TRAFFIC)
    )
    # Bridge groups 1 and 2: shares ports with both -> shard merge.
    ops.append(_admit("x-1", "host1-1", "host3-1"))
    ops.append(_admit("x-1", "host1-1", "host3-1"))  # duplicate -> ERROR
    ops.append(("release", "ghost"))  # unknown -> UNKNOWN
    if with_faults:
        ops.append(("fail", "id5"))  # displaces every bg5-* connection
        ops.append(_admit("during-fault", "host5-1", "host6-1"))  # no route
    for r in range(3):
        ops.append(_admit(f"probe-{r}", "host1-2", "host2-3"))
        ops.append(("release", f"bg1-{r}"))
        ops.append(_admit(f"rb-{r}", "host1-3", "host2-4"))
        ops.append(("release", f"probe-{r}"))
    if with_faults:
        ops.append(("repair", "id5"))
        ops.append(_admit("after-repair", "host5-2", "host6-2"))
    ops.append(("release", "x-1"))
    ops.append(_admit("tail-1", "host3-2", "host4-2"))
    return ops


def _spec_of(op: Op) -> ConnectionSpec:
    _, conn_id, src, dst, deadline, traffic = op
    c1, p1, c2, p2 = traffic
    return ConnectionSpec(
        conn_id=conn_id,
        source_host=src,
        dest_host=dst,
        traffic=DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=p2),
        deadline=deadline,
    )


async def apply_ops(
    service: AdmissionService,
    ops: Sequence[Op],
    decisions: Optional[List[Dict[str, Any]]] = None,
    signatures: Optional[List[str]] = None,
) -> None:
    """Run scripted ops sequentially; optionally record each decision and
    the post-op recovery signature."""
    for op in ops:
        kind = op[0]
        response: Optional[ServiceResponse] = None
        if kind == "admit":
            response = await service.submit_admit(_spec_of(op))
        elif kind == "release":
            response = await service.submit_release(op[1])
        elif kind == "fail":
            await service.inject_node_failure(op[1])
        elif kind == "repair":
            await service.repair_node(op[1])
        else:  # pragma: no cover - scripted ops are internal
            raise ValueError(f"unknown scripted op {kind!r}")
        if decisions is not None and response is not None:
            bound = response.delay_bound
            decisions.append(
                {
                    "op": kind,
                    "conn_id": response.conn_id,
                    "verdict": response.verdict,
                    "delay_bound": None if bound is None else repr(bound),
                }
            )
        if signatures is not None:
            signatures.append(service.signature())


def _fresh_service(
    journal_dir: Optional[str],
    snapshot_every: int = 7,
) -> AdmissionService:
    return AdmissionService(
        build_network(_network_config()),
        network_config=_network_config(),
        cac_config=CACConfig(),
        service_config=deterministic_config(snapshot_every),
        journal_dir=journal_dir,
        clock=TickClock(),
    )


# ---------------------------------------------------------------------------
# Phase 1: deterministic trajectory
# ---------------------------------------------------------------------------


def run_trajectory() -> Dict[str, Any]:
    async def _run() -> Dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
            service = _fresh_service(os.path.join(tmp, "wal"))
            decisions: List[Dict[str, Any]] = []
            await service.start()
            await apply_ops(service, trajectory_ops(), decisions)
            signature = service.signature()
            payload = {
                "decisions": decisions,
                "final_signature": signature,
                "n_requests": service.n_requests,
                "n_admitted": service.n_admitted,
                "n_active": len(service.state.active),
                "n_shards": len(service.state.shards),
                "n_merges": service.state.n_merges,
            }
            await service.stop()
            return payload

    return asyncio.run(_run())


# ---------------------------------------------------------------------------
# Phase 2: kill-and-restore recovery
# ---------------------------------------------------------------------------


def run_recovery(quick: bool) -> Dict[str, Any]:
    ops = trajectory_ops(with_faults=True)
    offsets = (
        [6, 15, len(ops) - 2]
        if quick
        else [4, 6, 10, 14, 15, 18, 22, len(ops) - 2]
    )

    async def _run() -> Dict[str, Any]:
        # Uninterrupted reference run, signature after every op.
        with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
            reference = _fresh_service(os.path.join(tmp, "ref"))
            ref_signatures: List[str] = []
            await reference.start()
            await apply_ops(reference, ops, signatures=ref_signatures)
            final_signature = reference.signature()
            await reference.stop()

            prefix_ok = True
            final_ok = True
            torn_ok = True
            for i, offset in enumerate(offsets):
                wal = os.path.join(tmp, f"kill-{i}")
                victim = _fresh_service(wal)
                await victim.start()
                await apply_ops(victim, ops[:offset])
                # Kill: no drain, no snapshot, no audit — the journal
                # file is already durable, the process state is lost.
                await victim.simulate_kill()
                del victim
                if i == 0:
                    # Torn tail: a partial record at the end of the file.
                    with open(
                        os.path.join(wal, "journal.jsonl"), "ab"
                    ) as fh:
                        fh.write(b'{"seq": 99999, "op": "adm')
                restored, report = AdmissionService.restore(
                    build_network(_network_config()),
                    wal,
                    network_config=_network_config(),
                    cac_config=CACConfig(),
                    service_config=deterministic_config(),
                    clock=TickClock(),
                )
                if i == 0 and not report.truncated_tail:
                    torn_ok = False
                if report.signature != ref_signatures[offset - 1]:
                    prefix_ok = False
                await restored.start(fresh_journal=False)
                await apply_ops(restored, ops[offset:])
                if restored.signature() != final_signature:
                    final_ok = False
                await restored.stop()

        return {
            "offsets": offsets,
            "prefix_signature_match": prefix_ok,
            "final_signature_match": final_ok,
            "torn_tail_ok": torn_ok,
            "final_signature": final_signature,
        }

    return asyncio.run(_run())


# ---------------------------------------------------------------------------
# Phase 3: degradation ladder under overload
# ---------------------------------------------------------------------------


#: Ladder-drill time steps (seconds per clock read).  The decision
#: latency the ladder observes is exactly one clock step (the dispatcher
#: brackets the decision with two adjacent reads), so these place the EWMA
#: decisively relative to the default hysteresis band (hi=0.5, lo=0.2).
_HEALTHY_STEP = 1e-6
_OVERLOAD_STEP = 1.0


def run_ladder(quick: bool) -> Dict[str, Any]:
    """Walk the degradation ladder up to FROZEN and back down to EXACT.

    Overload is simulated through the service's injectable clock: during
    the hot phase every clock read advances a full second, so each
    decision *measures* as taking one second — the real latency path
    (clock bracket around the decision → EWMA → ladder) runs unmodified,
    only time itself is synthetic.  That makes the engage/disengage
    booleans — the gated part — exact on any machine, and exercises the
    coarsened analysis config swap and the admission-freeze shed path
    for real (decisions during COARSENED run with ``coarsen_segments``).
    """
    hot = 12 if quick else 20
    cool = 40

    async def _run() -> Dict[str, Any]:
        clock = TickClock(step=_HEALTHY_STEP)
        config = ServiceConfig(
            queue_capacity=512,
            default_timeout=1e6,
            snapshot_every=0,
            latency_window=4,
            min_dwell=4,
            degraded_segments=32,
            freeze_probe_every=4,
            seed=1,
        )
        service = AdmissionService(
            build_network(_network_config()),
            network_config=_network_config(),
            service_config=config,
            clock=clock,
        )
        await service.start()
        # Healthy warmup: EWMA settles near zero, ladder stays EXACT.
        for j in range(4):
            await service.submit_admit(
                _spec_of(_admit(f"warm-{j}", "host1-1", "host2-1"))
            )
        warm_level = service.ladder.level
        # Overload: every decision now observes a one-second latency.
        # EXACT -> COARSENED after the EWMA crosses hi, then (dwell
        # permitting) COARSENED -> FROZEN; once frozen, only every 4th
        # attempt is a thaw probe and the rest shed as BUSY.
        clock.step = _OVERLOAD_STEP
        shed = 0
        for j in range(hot):
            response = await service.submit_admit(
                _spec_of(
                    _admit(
                        f"hot-{j}",
                        f"host1-{(j % 4) + 1}",
                        f"host2-{((j + 1) % 4) + 1}",
                        0.15,
                        (30_000.0, 0.015, 15_000.0, 0.005),
                    )
                )
            )
            if response.verdict == "BUSY":
                shed += 1
        engaged_level = max(
            (t.to_level for t in service.ladder.transitions), default=EXACT
        )
        # Recovery: time heals; decisions measure fast again.  From
        # FROZEN, thaw probes (every 4th attempt) feed the EWMA until it
        # drops below lo; dwell gates each downward rung — 40 cycles is
        # ample for both transitions.
        clock.step = _HEALTHY_STEP
        for j in range(hot):
            await service.submit_release(f"hot-{j}")
        for j in range(cool):
            await service.submit_admit(
                _spec_of(_admit(f"cool-{j}", "host3-1", "host4-1"))
            )
            await service.submit_release(f"cool-{j}")
        result = {
            "engaged": engaged_level > EXACT,
            "disengaged": service.ladder.level == EXACT,
            "warm_level": warm_level,
            "max_level": engaged_level,
            "final_level": service.ladder.level,
            "n_shed_during_freeze": shed,
            "n_transitions": len(service.ladder.transitions),
            "transitions": [
                t.describe() for t in service.ladder.transitions
            ],
            "degrade_hi_s": config.degrade_hi,
            "degrade_lo_s": config.degrade_lo,
            "overload_step_s": _OVERLOAD_STEP,
        }
        await service.stop()
        return result

    return asyncio.run(_run())


# ---------------------------------------------------------------------------
# Suite driver and CI gate
# ---------------------------------------------------------------------------


def run_service_bench(quick: bool = False) -> Dict[str, Any]:
    return {
        "suite": "service",
        "quick": quick,
        "trajectory": run_trajectory(),
        "recovery": run_recovery(quick),
        "ladder": run_ladder(quick),
    }


def check_service_payload(
    current: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Gated comparison of a fresh run against the committed artifact.

    The trajectory (verdicts, ``repr``-exact delay bounds, signature) and
    counters must match field-by-field; the recovery and ladder booleans
    must hold in both payloads.
    """
    problems: List[str] = []
    mine = current.get("trajectory", {})
    theirs = committed.get("trajectory", {})
    my_d = mine.get("decisions", [])
    their_d = theirs.get("decisions", [])
    if len(my_d) != len(their_d):
        problems.append(
            f"trajectory length {len(my_d)} != committed {len(their_d)}"
        )
    for i, (a, b) in enumerate(zip(my_d, their_d)):
        for field in ("op", "conn_id", "verdict", "delay_bound"):
            if a.get(field) != b.get(field):
                problems.append(
                    f"decision {i} {field}: {a.get(field)!r} != "
                    f"committed {b.get(field)!r}"
                )
    for field in (
        "final_signature",
        "n_requests",
        "n_admitted",
        "n_active",
        "n_shards",
        "n_merges",
    ):
        if mine.get(field) != theirs.get(field):
            problems.append(
                f"trajectory {field}: {mine.get(field)!r} != "
                f"committed {theirs.get(field)!r}"
            )
    for section, flags in (
        ("recovery", ("prefix_signature_match", "final_signature_match", "torn_tail_ok")),
        ("ladder", ("engaged", "disengaged")),
    ):
        for payload, who in ((current, "current"), (committed, "committed")):
            for flag in flags:
                if payload.get(section, {}).get(flag) is not True:
                    problems.append(f"{who} {section}.{flag} is not true")
    return problems


def run_and_check(
    quick: bool, committed_path: str
) -> Tuple[Dict[str, Any], List[str]]:
    payload = run_service_bench(quick)
    try:
        with open(committed_path, encoding="utf-8") as fh:
            committed = json.load(fh)
    except (OSError, ValueError) as exc:
        return payload, [f"cannot read committed payload: {exc}"]
    return payload, check_service_payload(payload, committed)

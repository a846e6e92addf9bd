"""The admission service's fixed scenario and scripted workload.

One deterministic setup shared by ``python -m repro service soak``, the
perfbench ``service-repeat`` workload and the service tests: a 6-ring
network with a standing population on ring pairs (1,2)/(3,4)/(5,6)
(:func:`scenario_spec`), a scripted admit/release/fault workload that
exercises every verdict (:func:`trajectory_ops`, run by
:func:`apply_ops`), and a fully deterministic service to run it on
(:func:`_fresh_service`: inline decisions, tick clock, inert ladder,
exact analysis).  The pinned outcome of that workload lives in
``tests/service/test_golden_trajectory.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    CACConfig,
    NetworkConfig,
    ServiceConfig,
    build_network,
)
from repro.network.connection import ConnectionSpec
from repro.scenario.spec import ScenarioSpec
from repro.service.server import AdmissionService, ServiceResponse
from repro.traffic.dual_periodic import DualPeriodicTraffic

#: Fixed scenario: 6 rings, pairs (1,2)/(3,4)/(5,6).
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
    """The fixed network and standing population as a scenario spec.

    The soak's default mode and perfbench's ``service-repeat`` workload
    take the topology and the background admissions from this one
    declarative object, and ``python -m repro scenario replay`` can run the
    same standing population through the differential invariant suite.
    The op-level parts (releases, duplicate admits, scripted node faults)
    stay in :func:`trajectory_ops` — a spec describes load, not an
    interactive session.
    """
    c1, p1, c2, p2 = BG
    traffic = DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=p2)
    entries = []
    for a, b in ((1, 2), (3, 4), (5, 6)):
        for j in range(PER_GROUP):
            entries.append(
                ConnectionSpec(
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
    """The fixed scripted workload.

    Exercises every verdict: background admissions per ring pair, a
    guaranteed rejection, cross traffic bridging two ring pairs, a
    duplicate admit (ERROR), an unknown release (UNKNOWN), and
    admit/release churn.  With ``with_faults`` a node failure displaces
    group 3 mid-run and is repaired before the end.
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
    # Bridge groups 1 and 2: shares ports with both, joining their
    # interference components.
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

"""One loader, three engines.

Every consumer of a :class:`~repro.scenario.spec.ScenarioSpec` goes through
this module:

* :func:`build_topology` and :func:`cac_config` — the spec's network and
  CAC config (what the service CLI restores and soaks against);
* :func:`connection_sim_config` — the connection-level simulator's run
  config (what the experiments feed to
  :func:`repro.experiments.parallel.run_sims`);
* :func:`admission_controller` — a fresh analytic CAC over the spec's
  topology and knobs (the analyzer path);
* :func:`run_scenario` — the full end-to-end execution: admit the explicit
  connections, drive the stochastic workload, and return a
  :class:`ScenarioOutcome` whose :attr:`~ScenarioOutcome.signature` is a
  deterministic, ``repr``-exact digest of every decision and the final
  state (the object the differential checker compares across engine
  variants and replays);
* :func:`run_packet_validation` — the packet-level simulator over the
  outcome's admitted set, for the sim-must-stay-below-bound invariant.

A spec whose knobs are all defaults lowers to ``CACConfig(beta=beta)``,
the config the simulator and the analytic CAC use by default, so figure
CSVs stay byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import CACConfig
from repro.core.cac import AdmissionController, AdmissionResult
from repro.core.delay import ConnectionLoad
from repro.errors import ReproError, ScenarioSpecError
from repro.network.connection import ConnectionSpec
from repro.network.topology import NetworkTopology
from repro.scenario.spec import ScenarioSpec
from repro.sim.connection_sim import (
    ConnectionSimConfig,
    ConnectionSimulator,
    SimResult,
)
from repro.sim.packet_sim import PacketLevelSimulator, PacketSimResult
from repro.topo.generators import paper_triangle


_RequestFn = Callable[[ConnectionSpec], AdmissionResult]


def build_topology(spec: ScenarioSpec) -> NetworkTopology:
    """The spec's network, freshly built (never shared between runs).

    A declarative ``topo`` takes precedence over the reference mesh; the
    scalar ``topology`` config then supplies only default parameters.
    """
    topo = spec.topo
    if topo is None:
        topo = paper_triangle(
            spec.topology.n_rings, spec.topology.hosts_per_ring
        )
    return topo.build(spec.topology)


def cac_config(spec: ScenarioSpec) -> CACConfig:
    """The CAC config the spec's knobs imply."""
    knobs = spec.cac
    return CACConfig(beta=knobs.beta, incremental=knobs.incremental)


def connection_sim_config(spec: ScenarioSpec) -> ConnectionSimConfig:
    """The connection-level simulator config for a stochastic scenario."""
    arrivals = spec.arrivals
    if arrivals is None:
        raise ScenarioSpecError(
            f"scenario {spec.name!r} has no stochastic workload (arrivals)"
        )
    plan = spec.faults
    return ConnectionSimConfig(
        utilization=arrivals.utilization,
        beta=spec.cac.beta,
        seed=arrivals.seed,
        n_requests=arrivals.n_requests,
        warmup_requests=arrivals.warmup_requests,
        network=spec.topology,
        topo=spec.topo,
        simulation=arrivals.simulation_config(),
        cac=cac_config(spec),
        faults=None if plan is None else plan.config,
        fault_script=None if plan is None else plan.fault_script(),
        retry=None if plan is None else plan.retry,
    )


def admission_controller(
    spec: ScenarioSpec, topology: Optional[NetworkTopology] = None
) -> AdmissionController:
    """A fresh analytic CAC over the spec's topology and knobs."""
    topo = topology if topology is not None else build_topology(spec)
    return AdmissionController(
        topo, network_config=spec.topology, cac_config=cac_config(spec)
    )


@dataclasses.dataclass(frozen=True)
class ExplicitDecision:
    """Outcome of one explicit connection's admission request."""

    conn_id: str
    admitted: bool
    #: The CAC's reason string, or ``error:<ExceptionName>`` when the
    #: request raised (no route on this topology, invalid endpoints, ...).
    reason: str
    delay_bound: Optional[float] = None


@dataclasses.dataclass
class ScenarioOutcome:
    """Everything one scenario execution produced.

    Holds the *live* controller and topology so invariant checks (ledger
    audit, packet validation, exact re-analysis) can interrogate the
    exact final state rather than a summary of it.
    """

    spec: ScenarioSpec
    topology: NetworkTopology
    cac: AdmissionController
    explicit: List[ExplicitDecision]
    sim_result: Optional[SimResult]

    def active_loads(self) -> List[ConnectionLoad]:
        """The final admitted set as analyzer/packet-sim loads."""
        return [
            ConnectionLoad(rec.spec, rec.route, rec.h_source, rec.h_dest)
            for rec in self.cac.connections.values()
        ]

    def final_bounds(self) -> Dict[str, Optional[float]]:
        """conn_id -> recorded delay bound of every active connection."""
        return {
            cid: rec.delay_bound for cid, rec in self.cac.connections.items()
        }

    @property
    def signature(self) -> str:
        """Deterministic ``repr``-exact digest of decisions + final state.

        Two executions of the same spec must produce identical signatures
        (the deterministic-replay invariant); the incremental and
        full-recompute engines must as well (the differential invariant).
        The signature covers every admission decision in order (with
        ``repr``-exact grants and delay bounds), the run counters, and the
        final ledger/active-set state.
        """
        parts: List[str] = []
        for decision in self.explicit:
            parts.append(
                "explicit "
                f"{decision.conn_id} {decision.admitted} {decision.reason} "
                f"{_opt_repr(decision.delay_bound)}"
            )
        for conn_id, result in self.cac.history:
            record = result.record
            parts.append(
                "decision "
                f"{conn_id} {result.admitted} "
                + (
                    "-"
                    if record is None
                    else f"{record.h_source!r} {record.h_dest!r}"
                )
                + f" {_opt_repr(result.delay_bound)}"
            )
        if self.sim_result is not None:
            m = self.sim_result.metrics
            parts.append(
                "metrics "
                f"{m.n_requests} {m.n_admitted} {m.n_rejected_cac} "
                f"{m.n_blocked_no_host} {m.n_departures} "
                f"{m.n_rejected_no_bandwidth} {m.n_rejected_infeasible} "
                f"{m.n_rejected_no_route}"
            )
            if m.survivability is not None:
                sv = m.survivability.summary()
                parts.append(
                    "survivability "
                    + " ".join(f"{k}={v!r}" for k, v in sorted(sv.items()))
                )
            parts.append(f"sim_time {self.sim_result.sim_time!r}")
        for conn_id in sorted(self.cac.connections):
            rec = self.cac.connections[conn_id]
            parts.append(
                "active "
                f"{conn_id} {rec.h_source!r} {rec.h_dest!r} "
                f"{_opt_repr(rec.delay_bound)}"
            )
        for ring_id, leak in sorted(self.cac.audit_allocations().items()):
            parts.append(f"ledger {ring_id} {leak!r}")
        return "\n".join(parts)


def _opt_repr(value: Optional[float]) -> str:
    return "-" if value is None else repr(value)


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute a scenario end-to-end on fresh state.

    Explicit connections are admitted first (in list order; a rejection or
    a routing error is recorded, not fatal).  If the spec has a stochastic
    workload the connection-level simulator then churns on the same
    controller until its request budget is spent.
    """
    explicit: List[ExplicitDecision] = []
    if spec.arrivals is not None:
        simulator = ConnectionSimulator(connection_sim_config(spec))
        cac = simulator.cac
        topology = simulator.topology
        for conn in spec.connections:
            explicit.append(_admit_explicit(simulator.preadmit, conn))
        sim_result: Optional[SimResult] = simulator.run()
    else:
        topology = build_topology(spec)
        cac = admission_controller(spec, topology)
        for conn in spec.connections:
            explicit.append(_admit_explicit(cac.request, conn))
        sim_result = None
    return ScenarioOutcome(
        spec=spec,
        topology=topology,
        cac=cac,
        explicit=explicit,
        sim_result=sim_result,
    )


def _admit_explicit(
    request: "_RequestFn", conn: ConnectionSpec
) -> ExplicitDecision:
    try:
        result = request(conn)
    except ReproError as exc:
        return ExplicitDecision(
            conn_id=conn.conn_id,
            admitted=False,
            reason=f"error:{type(exc).__name__}",
        )
    return ExplicitDecision(
        conn_id=conn.conn_id,
        admitted=result.admitted,
        reason=result.reason,
        delay_bound=result.delay_bound,
    )


def run_packet_validation(
    outcome: ScenarioOutcome,
) -> Tuple[PacketSimResult, Dict[str, Optional[float]]]:
    """Run the packet-level simulator over the outcome's admitted set.

    Returns the packet result and the per-connection analytic bounds it
    must stay below.  The topology is rebuilt fresh (the live one may hold
    failed elements and mutated ledgers; the packet sim models the data
    path of the *surviving* admitted set on clean hardware).
    """
    loads = outcome.active_loads()
    topo = build_topology(outcome.spec)
    result = PacketLevelSimulator(
        topo,
        loads,
        network_config=outcome.spec.topology,
        adversarial_phase=outcome.spec.packet.adversarial_phase,
    ).run(outcome.spec.packet.duration)
    return result, outcome.final_bounds()

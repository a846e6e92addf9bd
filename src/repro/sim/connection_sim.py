"""The paper's evaluation harness (Section 6).

Connection requests arrive as a Poisson process with rate ``lambda``; each
picks a source host uniformly among the currently *inactive* hosts and a
destination on a different ring (routes always cross the ATM backbone, as
in the paper); traffic is dual-periodic; admitted connections live for an
exponentially distributed time with mean ``1/mu``.  The measured metric is
the admission probability AP = admitted / requests.

The backbone load knob is the paper's ``U``: the average utilization of one
backbone link, ``U = (lambda / (n_links * mu)) * rho / C_link`` — the
simulator inverts this to set ``lambda``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import CACConfig, NetworkConfig, SimulationConfig
from repro.core.cac import AdmissionController, AdmissionResult
from repro.core.failover import FailoverManager
from repro.core.policies import AllocationPolicy
from repro.errors import ReproError
from repro.network.connection import ConnectionSpec
from repro.sim.engine import Simulator
from repro.sim.metrics import SimulationMetrics, SurvivabilityMetrics
from repro.sim.random import RandomStreams
from repro.topo.generators import paper_triangle
from repro.topo.spec import TopologySpec
from repro.traffic.generators import WorkloadGenerator

if TYPE_CHECKING:  # imported lazily at runtime (repro.faults imports repro.sim)
    from repro.faults.audit import SurvivabilityAudit
    from repro.faults.injector import FaultConfig, FaultInjector, FaultScript
    from repro.faults.retry import RetryOrchestrator, RetryPolicy


@dataclasses.dataclass(frozen=True)
class ConnectionSimConfig:
    """One simulation run's parameters."""

    utilization: float
    beta: float = 0.5
    seed: int = 1
    #: Stop after this many connection requests (the paper's AP estimator).
    n_requests: int = 400
    #: Warm-up requests excluded from the AP estimate.
    warmup_requests: int = 40
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    #: Declarative structural topology (None = the reference pairwise mesh
    #: built from ``network``).  When set, ``network`` supplies only the
    #: default parameters and the offered-load calibration uses the built
    #: topology's aggregate backbone capacity instead of the mesh formula.
    topo: Optional[TopologySpec] = None
    simulation: SimulationConfig = dataclasses.field(default_factory=SimulationConfig)
    cac: Optional[CACConfig] = None
    #: Stochastic fault processes (None/disabled = the fault-free paper run).
    faults: Optional["FaultConfig"] = None
    #: Deterministic fault schedule (tests/drills); may combine with faults.
    fault_script: Optional["FaultScript"] = None
    #: Backoff schedule for re-admitting displaced connections (None = the
    #: RetryPolicy defaults).
    retry: Optional["RetryPolicy"] = None

    def cac_config(self) -> CACConfig:
        if self.cac is not None:
            return self.cac
        return CACConfig(beta=self.beta)

    @property
    def faults_enabled(self) -> bool:
        return self.fault_script is not None or (
            self.faults is not None and self.faults.any_enabled
        )


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run."""

    config: ConnectionSimConfig
    admission_probability: float
    metrics: SimulationMetrics
    sim_time: float
    #: End-of-run invariant check (fault-injection runs only).
    audit: Optional["SurvivabilityAudit"] = None

    @property
    def survivability(self) -> Optional[SurvivabilityMetrics]:
        return self.metrics.survivability


class ConnectionSimulator:
    """Drives the CAC with the paper's stochastic workload."""

    def __init__(
        self,
        config: ConnectionSimConfig,
        policy: Optional[AllocationPolicy] = None,
        workload_generator=None,
    ) -> None:
        self.config = config
        topo = config.topo
        if topo is None:
            topo = paper_triangle(
                config.network.n_rings, config.network.hosts_per_ring
            )
        self.topology = topo.build(config.network)
        self.cac = AdmissionController(
            self.topology,
            network_config=config.network,
            cac_config=config.cac_config(),
            policy=policy,
        )
        self.streams = RandomStreams(config.seed)
        if workload_generator is not None:
            # Caller-supplied generator (e.g. a MixedWorkloadGenerator);
            # must expose .sample() -> (traffic, deadline) and .mean_rate.
            self.workload = workload_generator
        else:
            self.workload = WorkloadGenerator(
                config.simulation.workload, self.streams.stream("workload")
            )
        self.sim = Simulator()
        self.metrics = SimulationMetrics()
        self.arrival_rate = config.simulation.arrival_rate_for_utilization(
            config.utilization,
            config.network,
            backbone_capacity=(
                None
                if config.topo is None
                else self.topology.backbone_capacity()
            ),
        )
        self._active_hosts: set = set()
        self._counter = 0
        self._measuring = False
        #: conn_id -> (departure Event, absolute departure time); needed so
        #: a fault can cancel the departure of a displaced connection.
        self._departures: Dict[str, tuple] = {}
        self.injector: Optional["FaultInjector"] = None
        self.retries: Optional["RetryOrchestrator"] = None
        if config.faults_enabled:
            from repro.faults.injector import FaultInjector
            from repro.faults.retry import RetryOrchestrator, RetryPolicy

            self.metrics.survivability = SurvivabilityMetrics()
            self.failover = FailoverManager(self.cac)
            self.retries = RetryOrchestrator(
                sim=self.sim,
                cac=self.cac,
                policy=config.retry or RetryPolicy(),
                rng=self.streams.stream("faults:retry-jitter"),
                metrics=self.metrics.survivability,
                on_reconnected=self._on_reconnected,
                on_abandoned=self._on_retry_gave_up,
                on_expired=self._on_retry_gave_up,
            )
            self.injector = FaultInjector(
                sim=self.sim,
                manager=self.failover,
                streams=self.streams,
                config=config.faults,
                script=config.fault_script,
                on_displaced=self._on_displaced,
                on_repaired=self._on_repaired,
            )

    # ------------------------------------------------------------------

    def _eligible_sources(self) -> List[str]:
        return sorted(
            h for h in self.topology.hosts if h not in self._active_hosts
        )

    def _pick_destination(self, source: str) -> str:
        """A host on a *different* ring (routes always cross the backbone)."""
        src_ring = self.topology.hosts[source].ring_id
        candidates = sorted(
            h
            for h, host in self.topology.hosts.items()
            if host.ring_id != src_ring
        )
        return self.streams.choice("destination", candidates)

    def _schedule_next_arrival(self) -> None:
        gap = self.streams.exponential("arrivals", 1.0 / self.arrival_rate)
        self.sim.schedule(gap, self._on_arrival)

    def _on_arrival(self) -> None:
        self._counter += 1
        if self._counter > self.config.n_requests:
            return  # stop generating load
        if self._counter > self.config.warmup_requests:
            self._measuring = True
        self._schedule_next_arrival()

        if self._measuring:
            self.metrics.n_requests += 1
        sources = self._eligible_sources()
        if not sources:
            if self._measuring:
                self.metrics.n_blocked_no_host += 1
                if self.config.simulation.count_host_blocked:
                    self.metrics.n_rejected_cac += 1
            return
        source = self.streams.choice("source", sources)
        dest = self._pick_destination(source)
        traffic, deadline = self.workload.sample()
        spec = ConnectionSpec(
            f"conn-{self._counter}", source, dest, traffic, deadline
        )
        try:
            result = self.cac.request(spec)
        except ReproError:
            # Degraded topology (faults): no route / unviable analysis is a
            # clean rejection of the fresh request, not a simulator crash.
            if self._measuring:
                self.metrics.n_rejected_cac += 1
                self.metrics.n_rejected_no_route += 1
            return
        if result.admitted:
            self._active_hosts.add(source)
            if self._measuring:
                self.metrics.n_admitted += 1
                self.metrics.delay_bounds.add(result.record.delay_bound)
                self.metrics.grants.add(result.record.h_source)
            self.metrics.record_active_change(self.sim.now, +1)
            lifetime = self.streams.exponential(
                "lifetimes", self.config.simulation.mean_lifetime
            )
            self._schedule_departure(spec.conn_id, source, lifetime)
        else:
            if self._measuring:
                self.metrics.n_rejected_cac += 1
                if "bandwidth" in result.reason:
                    self.metrics.n_rejected_no_bandwidth += 1
                else:
                    self.metrics.n_rejected_infeasible += 1

    def _schedule_departure(self, conn_id: str, host: str, delay: float) -> None:
        event = self.sim.schedule(
            delay, lambda cid=conn_id, h=host: self._on_departure(cid, h)
        )
        self._departures[conn_id] = (event, event.time)

    def _on_departure(self, conn_id: str, host: str) -> None:
        self._departures.pop(conn_id, None)
        self.cac.release(conn_id)
        self._active_hosts.discard(host)
        self.metrics.n_departures += 1
        self.metrics.record_active_change(self.sim.now, -1)

    # ------------------------------------------------------------------
    # Fault handling (wired only when faults are enabled)
    # ------------------------------------------------------------------

    def _on_displaced(self, kind, target, specs) -> None:
        """A failure tore these connections down: cancel their departures
        and queue them for backoff re-admission.  Their source hosts stay
        reserved while the retry is pending."""
        sv = self.metrics.survivability
        if kind == "link":
            sv.n_link_failures += 1
        else:
            sv.n_node_failures += 1
        for spec in specs:
            event, depart_at = self._departures.pop(spec.conn_id)
            event.cancel()
            self.metrics.record_active_change(self.sim.now, -1)
            self.retries.enqueue(spec, expires_at=depart_at)

    def _on_repaired(self, kind, target) -> None:
        self.metrics.survivability.n_repairs += 1
        # The topology just improved: re-attempt the whole retry queue now,
        # tightest deadlines first, instead of waiting out the backoffs.
        self.retries.kick_all()

    def _on_reconnected(self, entry, result) -> None:
        self.metrics.record_active_change(self.sim.now, +1)
        # The connection resumes the remainder of its original lifetime.
        self._schedule_departure(
            entry.conn_id,
            entry.spec.source_host,
            entry.expires_at - self.sim.now,
        )

    def _on_retry_gave_up(self, entry) -> None:
        """Abandoned (attempt budget exhausted) or expired while queued:
        the source host finally frees up."""
        self._active_hosts.discard(entry.spec.source_host)

    # ------------------------------------------------------------------

    def preadmit(self, spec: ConnectionSpec) -> "AdmissionResult":
        """Admit a fixed connection before the stochastic run starts.

        Scenario-spec runs (:mod:`repro.scenario`) pin an explicit
        connection set under the stochastic churn: an admitted pinned
        connection occupies its source host and never departs, so it stays
        in the active set for the whole run.  Must be called before
        :meth:`run`; incompatible with fault injection (a displaced pinned
        connection has no departure to cancel), which the scenario spec
        validation enforces.
        """
        if self.config.faults_enabled:
            raise ReproError(
                "preadmitted connections are incompatible with fault "
                "injection"
            )
        result = self.cac.request(spec)
        if result.admitted:
            self._active_hosts.add(spec.source_host)
            self.metrics.record_active_change(self.sim.now, +1)
        return result

    def run(self) -> SimResult:
        """Run until ``n_requests`` requests have been issued."""
        if self.injector is not None:
            self.injector.start()
        self._schedule_next_arrival()
        while self._counter <= self.config.n_requests and self.sim.step():
            pass
        audit = None
        if self.config.faults_enabled:
            from repro.faults.audit import audit_controller

            audit = audit_controller(self.cac)
        return SimResult(
            config=self.config,
            admission_probability=self.metrics.admission_probability,
            metrics=self.metrics,
            sim_time=self.sim.now,
            audit=audit,
        )

"""The connection admission control algorithm of Section 5.3.

Upon a request, the controller:

1. computes the maximum available synchronous bandwidths
   ``(H_S^max_avai, H_R^max_avai)`` from the two rings' ledgers (Eqs. 26/27);
2. rejects immediately if even the maximum allocation cannot satisfy every
   deadline — requesting *and* existing connections (Eqs. 24/25, Theorem 4);
3. binary-searches the allocation segment for the minimum needed allocation
   ``(H^min_need)`` (Step 3) and the maximum useful allocation
   ``(H^max_need)`` — the smallest point whose delays already equal those at
   the maximum available allocation (Eqs. 31-33, Step 4);
4. grants ``H = H^min_need + beta * (H^max_need - H^min_need)`` (Eqs. 35/36)
   and records the allocation on both rings.

The actual choice of point is delegated to an
:class:`repro.core.policies.AllocationPolicy` so baselines can share all the
surrounding machinery.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import AnalysisConfig, CACConfig, NetworkConfig
from repro.core.delay import ConnectionLoad, DelayAnalyzer, DelayReport
from repro.core.incremental import IncrementalDelayEngine
from repro.core.policies import AllocationContext, AllocationPolicy, BetaPolicy
from repro.errors import (
    BufferOverflowError,
    ConfigurationError,
    UnstableSystemError,
)
from repro.fddi.timed_token import min_sync_allocation
from repro.network.connection import ConnectionRecord, ConnectionSpec
from repro.network.routing import Route, compute_route
from repro.network.topology import NetworkTopology

#: Ledger discrepancies below this (seconds of synchronous time) are
#: floating-point noise, not leaks.
LEAK_TOLERANCE = 1e-9


def ledger_discrepancies(
    topology: NetworkTopology, records: Iterable[ConnectionRecord]
) -> Dict[str, float]:
    """Per-ring discrepancy: ledger total minus the records' allocations.

    Every value must be ~0 (within :data:`LEAK_TOLERANCE`); a positive
    entry means the ring holds synchronous time that no live connection
    accounts for (a leak), a negative one that a record claims more than
    the ledger granted.
    """
    expected: Dict[str, float] = {rid: 0.0 for rid in topology.rings}
    for rec in records:
        expected[rec.route.source_ring] += rec.h_source
        if rec.route.crosses_backbone:
            expected[rec.route.dest_ring] += rec.h_dest
    return {
        rid: ring.allocated_sync_time - expected[rid]
        for rid, ring in topology.rings.items()
    }


@dataclasses.dataclass(frozen=True)
class AdmissionResult:
    """The outcome of one admission request."""

    admitted: bool
    reason: str
    record: Optional[ConnectionRecord] = None
    #: Diagnostics (populated when the searches ran).
    h_min_need: Optional[Tuple[float, float]] = None
    h_max_need: Optional[Tuple[float, float]] = None
    h_max_avail: Optional[Tuple[float, float]] = None
    delay_bound: Optional[float] = None
    #: Distinct feasibility probes the decision evaluated (0 when the
    #: request was refused before any delay analysis ran).
    n_probes: int = 0


class AdmissionController:
    """Stateful CAC over one network: admits, tracks and releases connections."""

    def __init__(
        self,
        topology: NetworkTopology,
        network_config: Optional[NetworkConfig] = None,
        cac_config: Optional[CACConfig] = None,
        policy: Optional[AllocationPolicy] = None,
    ) -> None:
        self.topology = topology
        self.network_config = network_config or NetworkConfig()
        self.config = cac_config or CACConfig()
        self.policy = policy if policy is not None else BetaPolicy(self.config.beta)
        self.analyzer = DelayAnalyzer(
            topology, self.network_config, self.config.analysis
        )
        #: Interference-partition cache over the analyzer (None = every
        #: evaluation recomputes the whole active set from scratch).
        self.engine: Optional[IncrementalDelayEngine] = (
            IncrementalDelayEngine(self.analyzer)
            if self.config.incremental
            else None
        )
        self.connections: Dict[str, ConnectionRecord] = {}
        #: The ConnectionLoad of every active record, in the order of
        #: :attr:`connections`, updated in place by every admit, restore
        #: and release.  The objects persist across decisions, so the
        #: incremental engine's id-keyed memo keeps their keys and port
        #: footprints.
        self._loads: Dict[str, ConnectionLoad] = {}
        #: Running counters for admission-probability measurements.
        self.n_requests = 0
        self.n_admitted = 0
        #: Audit trail of every decision, newest last (bounded length).
        self.history: List[Tuple[str, AdmissionResult]] = []
        self.history_limit = 10_000

    # ------------------------------------------------------------------
    # Delay evaluation helpers
    # ------------------------------------------------------------------

    def _loads_with(
        self, candidate: Optional[ConnectionLoad]
    ) -> List[ConnectionLoad]:
        loads = list(self._loads.values())
        if candidate is not None:
            loads.append(candidate)
        return loads

    def _add(self, record: ConnectionRecord) -> None:
        """Make ``record`` active (its ledger grants are already charged)."""
        self.connections[record.conn_id] = record
        self._loads[record.conn_id] = ConnectionLoad(
            record.spec, record.route, record.h_source, record.h_dest
        )

    def evaluate(
        self, candidate: Optional[ConnectionLoad]
    ) -> Optional[Dict[str, DelayReport]]:
        """Delays of all connections (plus ``candidate``), or None if any
        stage is unstable / overflows a buffer (infinite worst-case delay)."""
        loads = self._loads_with(candidate)
        try:
            if self.engine is not None:
                return self.engine.compute(loads)
            return self.analyzer.compute(loads)
        except (UnstableSystemError, BufferOverflowError):
            return None

    def _deadline_of(self, conn_id: str, candidate: Optional[ConnectionLoad]):
        if candidate is not None and conn_id == candidate.spec.conn_id:
            return candidate.spec.deadline
        return self.connections[conn_id].spec.deadline

    def check_feasible(
        self, candidate: ConnectionLoad
    ) -> Optional[Dict[str, DelayReport]]:
        """Eqs. (24)/(25): every delay within its deadline, or None."""
        reports = self.evaluate(candidate)
        if reports is None:
            return None
        # The 1e-12 s slack errs on the admitting side: a delay bound may
        # exceed its deadline by at most 1 ps and still pass.
        for conn_id, report in reports.items():
            if report.total_delay > self._deadline_of(conn_id, candidate) + 1e-12:
                return None
        return reports

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def request(self, spec: ConnectionSpec) -> AdmissionResult:
        """Run the CAC for ``spec``; on success the allocation is recorded.

        Every decision (admitted or not) is appended to :attr:`history`.
        Counting happens *after* the decision returns: a request that
        raises (duplicate id, no route, degraded topology) never reaches
        :attr:`history` and must not inflate the AP denominator either.
        """
        result = self._decide(spec)
        self.n_requests += 1
        if result.admitted:
            self.n_admitted += 1
        self.history.append((spec.conn_id, result))
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) // 2]
        return result

    def _decide(self, spec: ConnectionSpec) -> AdmissionResult:
        if spec.conn_id in self.connections:
            raise ConfigurationError(f"connection {spec.conn_id!r} already active")
        route = compute_route(self.topology, spec.source_host, spec.dest_host)
        ring_s = self.topology.rings[route.source_ring]
        ring_r = self.topology.rings[route.dest_ring]
        local = not route.crosses_backbone

        h_min_abs_s = min_sync_allocation(ring_s.bandwidth)
        h_min_abs_r = 0.0 if local else min_sync_allocation(ring_r.bandwidth)
        h_max_s = ring_s.available_sync_time
        h_max_r = 0.0 if local else ring_r.available_sync_time

        if h_max_s < h_min_abs_s or (not local and h_max_r < h_min_abs_r):
            return AdmissionResult(
                admitted=False,
                reason="no synchronous bandwidth available",
                h_max_avail=(h_max_s, h_max_r),
            )

        def load_at(h_s: float, h_r: float) -> ConnectionLoad:
            return ConnectionLoad(spec, route, h_s, h_r)

        # Step 2: feasibility at the maximum available allocation.
        reports_at_max = self.check_feasible(load_at(h_max_s, h_max_r))
        if reports_at_max is None:
            return AdmissionResult(
                admitted=False,
                reason="infeasible even at maximum available allocation",
                h_max_avail=(h_max_s, h_max_r),
                n_probes=1,
            )

        # Probes whose allocations round to the same 1e-10 s grid point
        # (each within 5e-11 s of it) share the first one's verdict and
        # reports.  That errs either way, by at most 1e-10 s of
        # synchronous time: a point may pass on a neighbour's feasibility
        # (the admitting side; the recorded bounds then describe an
        # allocation up to 1e-10 s from the granted one) or fail on a
        # neighbour's infeasibility (the rejecting side).
        probe_cache: Dict[Tuple[float, float], object] = {}

        def probe(hs: float, hr: float):
            key = (round(hs, 10), round(hr, 10))
            if key not in probe_cache:
                probe_cache[key] = self.check_feasible(load_at(hs, hr))
            return probe_cache[key]

        ctx = AllocationContext(
            h_min_abs=(h_min_abs_s, h_min_abs_r),
            h_max_avail=(h_max_s, h_max_r),
            local=local,
            check_feasible=probe,
            reports_at_max=reports_at_max,
            config=self.config,
            long_term_rate=spec.traffic.long_term_rate,
            ring_bandwidth=ring_s.bandwidth,
            ttrt=ring_s.ttrt,
        )
        choice = self.policy.select(ctx)
        n_probes = 1 + len(probe_cache)
        if choice is None:
            return AdmissionResult(
                admitted=False,
                reason="allocation policy found no acceptable point",
                h_max_avail=(h_max_s, h_max_r),
                n_probes=n_probes,
            )
        (h_s, h_r), reports = choice

        record = ConnectionRecord(
            spec=spec,
            route=route,
            h_source=h_s,
            h_dest=h_r,
            delay_bound=reports[spec.conn_id].total_delay,
        )
        # Transactional two-ring allocation: if the destination ring's
        # ledger rejects the grant, the source ring's half is rolled back
        # so a failed admission can never leak synchronous bandwidth.
        ring_s.allocate(spec.conn_id, h_s)
        if not local:
            try:
                ring_r.allocate(spec.conn_id, h_r)
            except Exception:
                ring_s.release(spec.conn_id)
                raise
        self._add(record)
        # Refresh every existing record's bound under the new load.
        for conn_id, report in reports.items():
            self.connections[conn_id].delay_bound = report.total_delay
        return AdmissionResult(
            admitted=True,
            reason="admitted",
            record=record,
            h_min_need=ctx.observed_min_need,
            h_max_need=ctx.observed_max_need,
            h_max_avail=(h_max_s, h_max_r),
            delay_bound=record.delay_bound,
            n_probes=n_probes,
        )

    def restore(
        self,
        spec: ConnectionSpec,
        h_source: float,
        h_dest: float,
        *,
        route: Optional[Route] = None,
        delay_bound: Optional[float] = None,
    ) -> ConnectionRecord:
        """Re-apply a previously granted admission without re-deciding it.

        The journal-replay / snapshot-load primitive of the standing
        service (:mod:`repro.service`): the allocation was already decided
        by a past ``request()``, so restoration only re-records it — the
        ring ledgers are charged transactionally exactly as in
        :meth:`_decide`, but no feasibility search runs.  ``route`` may be
        supplied verbatim (a journaled route survives topology changes
        that would make a recomputed route diverge); otherwise the route
        is recomputed on the current topology.

        Counters, history and the survivors' delay bounds are *not*
        touched: replay drives those explicitly (see
        ``repro.service.journal``) and calls :meth:`refresh_bounds` once
        at the end instead of after every record.
        """
        if spec.conn_id in self.connections:
            raise ConfigurationError(
                f"connection {spec.conn_id!r} already active"
            )
        if route is None:
            route = compute_route(self.topology, spec.source_host, spec.dest_host)
        record = ConnectionRecord(
            spec=spec,
            route=route,
            h_source=h_source,
            h_dest=h_dest,
            delay_bound=delay_bound,
        )
        ring_s = self.topology.rings[record.route.source_ring]
        ring_s.allocate(spec.conn_id, h_source)
        if record.route.crosses_backbone:
            try:
                self.topology.rings[record.route.dest_ring].allocate(
                    spec.conn_id, h_dest
                )
            except Exception:
                ring_s.release(spec.conn_id)
                raise
        self._add(record)
        return record

    def set_analysis_config(self, analysis: AnalysisConfig) -> None:
        """Swap the delay-analysis accuracy mode in place.

        The degradation ladder of :mod:`repro.service` switches between
        exact analysis and conservative coarsening without rebuilding the
        controller: the active set and the ring ledgers are untouched;
        the analyzer (and its caches) and the incremental engine are
        rebuilt under the new :class:`~repro.config.AnalysisConfig`.
        No-op when the config is unchanged.
        """
        if analysis == self.analyzer.analysis:
            return
        self.config = dataclasses.replace(self.config, analysis=analysis)
        self.analyzer = DelayAnalyzer(
            self.topology, self.network_config, analysis
        )
        self.engine = (
            IncrementalDelayEngine(self.analyzer)
            if self.config.incremental
            else None
        )

    def release(self, conn_id: str) -> ConnectionRecord:
        """Tear down a connection and free its synchronous bandwidth.

        The survivors' recorded ``delay_bound``s are refreshed: removing
        load can only tighten the fixed point, and callers that read the
        records directly (metrics, failover reports, the fault audit)
        would otherwise see the stale pre-departure bounds.
        """
        if conn_id not in self.connections:
            raise ConfigurationError(f"unknown connection {conn_id!r}")
        record = self.connections.pop(conn_id)
        del self._loads[conn_id]
        self.topology.rings[record.route.source_ring].release(conn_id)
        if record.route.crosses_backbone:
            self.topology.rings[record.route.dest_ring].release(conn_id)
        self.refresh_bounds()
        return record

    def refresh_bounds(self) -> None:
        """Recompute every surviving record's delay bound.

        With the incremental engine this touches only the departed
        connection's interference component.  If the surviving set has no
        finite bound (cannot happen from a pure release, but a caller may
        have degraded the topology first), the stale bounds are invalidated
        rather than silently kept.
        """
        if not self.connections:
            return
        reports = self.evaluate(None)
        if reports is None:
            for rec in self.connections.values():
                rec.delay_bound = None
            return
        for conn_id, report in reports.items():
            self.connections[conn_id].delay_bound = report.total_delay

    def audit_allocations(self) -> Dict[str, float]:
        """:func:`ledger_discrepancies` of this controller's connections.

        Used by the survivability audit after fault-injection runs.
        """
        return ledger_discrepancies(self.topology, self.connections.values())

    @property
    def admission_probability(self) -> float:
        """Admitted / requested so far (the paper's AP metric)."""
        if self.n_requests == 0:
            return float("nan")
        return self.n_admitted / self.n_requests

    def current_delays(self) -> Dict[str, float]:
        """Worst-case delay bound of every active connection right now."""
        reports = self.evaluate(None)
        if reports is None:
            raise UnstableSystemError(
                "current connection set has no finite delay bound"
            )
        return {cid: r.total_delay for cid, r in reports.items()}

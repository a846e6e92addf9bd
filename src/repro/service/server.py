"""The standing admission-control service.

:class:`AdmissionService` puts one
:class:`~repro.core.cac.AdmissionController` behind an asyncio request
queue, decides each request inline on the event loop in dispatch order
(priority, then arrival), and hardens the whole decision path:

* **bounded queue with priority shedding** — admits past
  ``ServiceConfig.queue_capacity`` shed the lowest-priority queued admit
  (or the newcomer itself) with a ``BUSY`` verdict carrying a
  deterministic exponential ``retry_after`` hint.  Releases always pass:
  they free resources and shrink every queue behind them.
* **per-request deadlines** — a request that waits or computes past its
  timeout is answered ``TIMEOUT``; an admission that completed too late
  is rolled back first, so ``TIMEOUT`` always means "nothing changed".
* **write-ahead journal** — every state-changing decision is appended to
  the :class:`~repro.service.journal.JournalStore` *before* the response
  is released, so a crash can lose at most decisions whose verdict no
  client ever saw.  :meth:`AdmissionService.restore` rebuilds the exact
  admission state (snapshot + tail replay) and proves it with the
  recovery signature and a ledger audit.
* **graceful degradation** — the
  :class:`~repro.service.degrade.DegradationLadder` watches decision
  latency and steps the analysis from exact to conservative coarsening to
  an admission freeze, with hysteresis and thaw probes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import CACConfig, NetworkConfig, ServiceConfig
from repro.core.cac import LEAK_TOLERANCE, AdmissionController
from repro.errors import AuditError, JournalError, ReproError, RoutingError
from repro.faults.retry import RetryPolicy
from repro.network.connection import ConnectionRecord, ConnectionSpec
from repro.network.routing import compute_route
from repro.network.topology import NetworkTopology
from repro.service import codec
from repro.service.degrade import DegradationLadder
from repro.service.journal import JournalStore, JournalTail
from repro.service.state import state_payload, state_signature
from repro.sim.metrics import RunningStats
from repro.sim.random import RandomStreams

# Verdicts of the service API (strings so they serialize as themselves).
ADMITTED = "ADMITTED"
REJECTED = "REJECTED"
RELEASED = "RELEASED"
TIMEOUT = "TIMEOUT"
BUSY = "BUSY"
UNKNOWN = "UNKNOWN"
ERROR = "ERROR"


def _raise_on_leaks(controller: AdmissionController, what: str) -> None:
    """Raise :class:`AuditError` naming every ring whose ledger leaks."""
    leaks = {
        rid: diff
        for rid, diff in controller.audit_allocations().items()
        if abs(diff) > LEAK_TOLERANCE
    }
    if leaks:
        raise AuditError(
            f"{what}: "
            + ", ".join(f"{rid}: {diff:+.3e}s" for rid, diff in leaks.items())
        )


@dataclasses.dataclass(frozen=True)
class ServiceResponse:
    """The service's answer to one request."""

    verdict: str
    conn_id: str
    reason: str = ""
    #: End-to-end worst-case delay bound granted (``ADMITTED`` only).
    delay_bound: Optional[float] = None
    #: Suggested client backoff before retrying (``BUSY``/``TIMEOUT``).
    retry_after: Optional[float] = None
    #: Decision latency in seconds (0 when no decision ran).
    latency: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "verdict": self.verdict,
            "conn_id": self.conn_id,
            "reason": self.reason,
            "latency": self.latency,
        }
        if self.delay_bound is not None:
            out["delay_bound"] = self.delay_bound
        if self.retry_after is not None:
            out["retry_after"] = self.retry_after
        return out


@dataclasses.dataclass
class _Queued:
    """One request waiting in the bounded queue."""

    seq: int
    kind: str  # "admit" | "release"
    conn_id: str
    priority: int
    deadline: float
    spec: Optional[ConnectionSpec]
    future: "asyncio.Future[ServiceResponse]"


@dataclasses.dataclass(frozen=True)
class RestoreReport:
    """What :meth:`AdmissionService.restore` rebuilt and verified."""

    snapshot_seq: int
    n_snapshot_records: int
    n_replayed: int
    truncated_tail: bool
    corruption: Optional[str]
    signature: str
    n_requests: int
    n_admitted: int
    n_active: int


class ServiceMetrics:
    """Counters and latency statistics of one service instance."""

    #: Latency samples kept for percentile estimates.
    SAMPLE_CAP = 65_536

    def __init__(self) -> None:
        self.verdicts: Dict[str, int] = {
            v: 0
            for v in (ADMITTED, REJECTED, RELEASED, TIMEOUT, BUSY, UNKNOWN, ERROR)
        }
        self.decision_latency = RunningStats()
        self._samples: List[float] = []
        self.queue_high_water = 0
        self.n_shed = 0
        self.n_snapshots = 0
        self.n_displaced = 0
        self.n_thaw_probes = 0

    def observe_latency(self, latency: float) -> None:
        self.decision_latency.add(latency)
        if len(self._samples) < self.SAMPLE_CAP:
            self._samples.append(latency)

    def count(self, verdict: str) -> None:
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    def percentile(self, q: float) -> float:
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdicts": dict(self.verdicts),
            "decisions": self.decision_latency.n,
            "latency_mean": self.decision_latency.mean,
            "latency_p50": self.percentile(0.50),
            "latency_p99": self.percentile(0.99),
            "queue_high_water": self.queue_high_water,
            "n_shed": self.n_shed,
            "n_snapshots": self.n_snapshots,
            "n_displaced": self.n_displaced,
            "n_thaw_probes": self.n_thaw_probes,
        }


class StateView:
    """The service's one controller, in the shape perfbench reads.

    It exists for perfbench, the repository's benchmark, whose files do
    not change with the program: its service workload reads
    ``service.state.{active, shards, n_merges, audit_allocations()}`` and
    each shard's ``controller``, names from when the service split its
    connections over one controller per shard.  The view is read-only;
    nothing in the program uses it.
    """

    #: One controller never merges.
    n_merges = 0

    def __init__(self, controller: AdmissionController) -> None:
        self.controller = controller
        #: The one "shard" is the view itself: it exposes ``controller``.
        self.shards: Dict[int, "StateView"] = {1: self}

    @property
    def active(self) -> Dict[str, ConnectionRecord]:
        return self.controller.connections

    def audit_allocations(self) -> Dict[str, float]:
        return self.controller.audit_allocations()


class AdmissionService:
    """Asyncio admission-control server over one CAC controller."""

    def __init__(
        self,
        topology: NetworkTopology,
        network_config: Optional[NetworkConfig] = None,
        cac_config: Optional[CACConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        journal_dir: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = service_config or ServiceConfig()
        self.controller = AdmissionController(
            topology, network_config, cac_config
        )
        self.state = StateView(self.controller)
        self.ladder = DegradationLadder(self.config)
        self.metrics = ServiceMetrics()
        self.clock: Callable[[], float] = clock or time.monotonic
        self.journal: Optional[JournalStore] = (
            JournalStore(journal_dir, fsync=self.config.fsync)
            if journal_dir is not None
            else None
        )
        #: The journaled, restorable AP counters.  The controller keeps its
        #: own, but they miss no-route rejections and journal replay.
        self.n_requests = 0
        self.n_admitted = 0
        self._base_analysis = self.controller.config.analysis
        self._retry_policy = RetryPolicy(
            base_delay=self.config.retry_base_delay,
            factor=self.config.retry_factor,
            max_delay=self.config.retry_max_delay,
            max_attempts=64,
            jitter=0.1,
        )
        self._streams = RandomStreams(self.config.seed)
        self._busy_counts: Dict[str, int] = {}
        # Queue machinery.
        self._queue: List[_Queued] = []
        self._queue_seq = 0
        self._wake = asyncio.Event()
        self._running = False
        self._dispatcher: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self, fresh_journal: bool = True) -> None:
        """Open the journal and start dispatching."""
        if self._running:
            return
        if self.journal is not None and fresh_journal:
            self.journal.open_fresh()
        self._running = True
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        """Drain, snapshot, audit — raises :class:`AuditError` on leaks."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        # Claim-then-await: null the shared handle *before* suspending so
        # a concurrent stop() cannot await (or re-null) the same task.
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            await dispatcher
        for queued in self._queue:
            if not queued.future.done():
                queued.future.set_result(
                    ServiceResponse(
                        verdict=BUSY,
                        conn_id=queued.conn_id,
                        reason="service shutting down",
                    )
                )
        self._queue.clear()
        if self.journal is not None:
            self._write_snapshot()
            self.journal.close()
        _raise_on_leaks(
            self.controller,
            "service shutdown audit found leaked synchronous bandwidth",
        )

    async def simulate_kill(self) -> None:
        """Die abruptly: no drain, no final snapshot, no audit.

        Mimics ``kill -9`` for the recovery drills — the journal file is
        left exactly as the last append flushed it, and the only cleanup
        is what process death would do anyway (the event loop reaps the
        dispatcher; file handles drop).
        """
        self._running = False
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass
        if self.journal is not None:
            self.journal.close()

    async def __aenter__(self) -> "AdmissionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- public API ------------------------------------------------------

    async def submit_admit(
        self,
        spec: ConnectionSpec,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> ServiceResponse:
        """Request admission; resolves when the verdict is durable."""
        return await self._submit("admit", spec.conn_id, spec, priority, timeout)

    async def submit_release(
        self, conn_id: str, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """Request teardown.  Never shed: releases shrink the backlog."""
        return await self._submit("release", conn_id, None, 0, timeout)

    async def _submit(
        self,
        kind: str,
        conn_id: str,
        spec: Optional[ConnectionSpec],
        priority: int,
        timeout: Optional[float],
    ) -> ServiceResponse:
        if not self._running:
            return ServiceResponse(
                verdict=BUSY, conn_id=conn_id, reason="service not running"
            )
        now = self.clock()
        self._queue_seq += 1
        queued = _Queued(
            seq=self._queue_seq,
            kind=kind,
            conn_id=conn_id,
            priority=priority,
            deadline=now + (timeout or self.config.default_timeout),
            spec=spec,
            future=asyncio.get_running_loop().create_future(),
        )
        if kind == "admit":
            shed = self._make_room(queued)
            if shed is not None and shed is queued:
                return self._busy_response(conn_id, "admission queue full")
        self._queue.append(queued)
        self.metrics.queue_high_water = max(
            self.metrics.queue_high_water, len(self._queue)
        )
        self._wake.set()
        return await queued.future

    def _make_room(self, incoming: _Queued) -> Optional[_Queued]:
        """Enforce the admit-queue bound; returns the shed request, if any.

        The victim is the lowest-priority queued admit, youngest first —
        but only if its priority is strictly below the newcomer's;
        otherwise the newcomer itself is shed.
        """
        admits = [q for q in self._queue if q.kind == "admit"]
        if len(admits) < self.config.queue_capacity:
            return None
        victim = min(admits, key=lambda q: (q.priority, -q.seq))
        if victim.priority >= incoming.priority:
            self.metrics.n_shed += 1
            return incoming
        self._queue.remove(victim)
        self.metrics.n_shed += 1
        if not victim.future.done():
            victim.future.set_result(
                self._busy_response(victim.conn_id, "shed by higher priority")
            )
        return victim

    def _busy_response(self, conn_id: str, reason: str) -> ServiceResponse:
        response = ServiceResponse(
            verdict=BUSY,
            conn_id=conn_id,
            reason=reason,
            retry_after=self._retry_hint(conn_id),
        )
        self.metrics.count(BUSY)
        return response

    def _retry_hint(self, conn_id: str) -> float:
        """Deterministic exponential backoff hint, one substream per id."""
        attempt = self._busy_counts.get(conn_id, 0) + 1
        self._busy_counts[conn_id] = attempt
        rng = self._streams.stream(f"retry:{conn_id}")
        return self._retry_policy.delay(
            min(attempt, self._retry_policy.max_attempts), rng
        )

    # -- dispatching -----------------------------------------------------

    def _pop_next(self) -> _Queued:
        best = min(self._queue, key=lambda q: (-q.priority, q.seq))
        self._queue.remove(best)
        return best

    async def _dispatch_loop(self) -> None:
        while self._running:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            if (
                self.journal is not None
                and self.config.snapshot_every > 0
                and self.journal.since_snapshot >= self.config.snapshot_every
            ):
                self._write_snapshot()
            self._serve_one(self._pop_next())

    def _serve_one(self, queued: _Queued) -> None:
        try:
            response = self._handle(queued)
        except ReproError as exc:
            self.metrics.count(ERROR)
            response = ServiceResponse(
                verdict=ERROR,
                conn_id=queued.conn_id,
                reason=f"{type(exc).__name__}: {exc}",
            )
        if not queued.future.done():
            queued.future.set_result(response)

    def _handle(self, queued: _Queued) -> ServiceResponse:
        if self.clock() > queued.deadline:
            self.metrics.count(TIMEOUT)
            return ServiceResponse(
                verdict=TIMEOUT,
                conn_id=queued.conn_id,
                reason="request expired while queued",
                retry_after=self._retry_hint(queued.conn_id),
            )
        if queued.kind == "release":
            return self._handle_release(queued)
        return self._handle_admit(queued)

    def _handle_release(self, queued: _Queued) -> ServiceResponse:
        conn_id = queued.conn_id
        if conn_id not in self.controller.connections:
            self.metrics.count(UNKNOWN)
            return ServiceResponse(
                verdict=UNKNOWN,
                conn_id=conn_id,
                reason="no such active connection",
            )
        self.controller.release(conn_id)
        self._journal("release", {"conn_id": conn_id})
        self.metrics.count(RELEASED)
        return ServiceResponse(verdict=RELEASED, conn_id=conn_id)

    def _handle_admit(self, queued: _Queued) -> ServiceResponse:
        spec = queued.spec
        assert spec is not None
        conn_id = spec.conn_id
        if not self.ladder.admit_allowed():
            return self._busy_response(conn_id, "admissions frozen (overload)")
        if self.ladder.frozen:
            self.metrics.n_thaw_probes += 1
        controller = self.controller
        if conn_id in controller.connections:
            self.metrics.count(ERROR)
            return ServiceResponse(
                verdict=ERROR,
                conn_id=conn_id,
                reason="connection id already active",
            )
        # No route is a journaled rejection here; inside the controller's
        # decision it would raise and be answered ERROR.
        try:
            compute_route(controller.topology, spec.source_host, spec.dest_host)
        except RoutingError as exc:
            return self._finish_reject(conn_id, f"no route: {exc}", latency=0.0)
        controller.set_analysis_config(
            self.ladder.analysis_for(self._base_analysis)
        )
        t0 = self.clock()
        result = controller.request(spec)
        latency = self.clock() - t0
        self.ladder.observe(latency)
        self.metrics.observe_latency(latency)
        if self.clock() > queued.deadline:
            # Too late to matter: undo a successful admission so TIMEOUT
            # always means "no state changed".
            if result.admitted:
                controller.release(conn_id)
            self.metrics.count(TIMEOUT)
            return ServiceResponse(
                verdict=TIMEOUT,
                conn_id=conn_id,
                reason="decision exceeded request deadline",
                retry_after=self._retry_hint(conn_id),
                latency=latency,
            )
        if not result.admitted:
            return self._finish_reject(conn_id, result.reason, latency)
        record = result.record
        assert record is not None
        self._journal("admit", codec.record_to_dict(record))
        self.n_requests += 1
        self.n_admitted += 1
        self._busy_counts.pop(conn_id, None)
        self.metrics.count(ADMITTED)
        return ServiceResponse(
            verdict=ADMITTED,
            conn_id=conn_id,
            reason=result.reason,
            delay_bound=record.delay_bound,
            latency=latency,
        )

    def _finish_reject(
        self, conn_id: str, reason: str, latency: float
    ) -> ServiceResponse:
        self._journal("reject", {"conn_id": conn_id})
        self.n_requests += 1
        self.metrics.count(REJECTED)
        return ServiceResponse(
            verdict=REJECTED, conn_id=conn_id, reason=reason, latency=latency
        )

    # -- journaling ------------------------------------------------------

    def _journal(self, op: str, data: Dict[str, Any]) -> None:
        if self.journal is not None:
            self.journal.append(op, data)

    def _write_snapshot(self) -> None:
        if self.journal is None or self.journal.next_seq == 1:
            return
        payload = state_payload(
            list(self.controller.connections.values()),
            self.n_requests,
            self.n_admitted,
            failed_nodes=self.controller.topology.failed_nodes,
        )
        self.journal.write_snapshot(payload, seq=self.journal.next_seq - 1)
        self.metrics.n_snapshots += 1

    # -- fault handling --------------------------------------------------

    async def inject_node_failure(self, node_id: str) -> List[str]:
        """Fail a switch/device; force-release every connection riding it.

        The forced teardowns are journaled as ordinary releases, so a
        recovery replays them and the restored state matches.  Returns
        the displaced connection ids (a retry layer would re-admit them).
        """
        self.controller.topology.fail_node(node_id)
        self._journal("fault", {"node": node_id})
        displaced = [
            rec.conn_id
            for rec in self.controller.connections.values()
            if node_id in (rec.route.source_device, rec.route.dest_device)
            or node_id in rec.route.switch_path
        ]
        for conn_id in displaced:
            self.controller.release(conn_id)
            self._journal("release", {"conn_id": conn_id})
            self.metrics.n_displaced += 1
        return displaced

    async def repair_node(self, node_id: str) -> None:
        self.controller.topology.restore_node(node_id)
        self._journal("repair", {"node": node_id})

    # -- recovery --------------------------------------------------------

    def signature(self) -> str:
        """The current recovery signature (see :mod:`repro.service.state`)."""
        return state_signature(
            list(self.controller.connections.values()),
            self.controller.topology,
            self.n_requests,
            self.n_admitted,
        )

    @classmethod
    def restore(
        cls,
        topology: NetworkTopology,
        journal_dir: str,
        network_config: Optional[NetworkConfig] = None,
        cac_config: Optional[CACConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> Tuple["AdmissionService", RestoreReport]:
        """Rebuild a killed service from its journal directory.

        ``topology`` must be a *fresh* instance of the network the dead
        process ran (empty ledgers); the snapshot and journal tail are
        replayed onto it in global admission order, bounds are refreshed,
        and the rebuilt ledgers are audited — any leak raises
        :class:`AuditError`, as does journal corruption before the torn
        tail.  The service is returned un-started; its journal continues
        from the trusted prefix (torn bytes truncated).
        """
        service = cls(
            topology,
            network_config=network_config,
            cac_config=cac_config,
            service_config=service_config,
            journal_dir=journal_dir,
            clock=clock,
        )
        store = service.journal
        assert store is not None
        snapshot, snap_seq = store.load_latest_snapshot()
        n_snapshot_records = 0
        if snapshot is not None:
            counters = snapshot.get("counters", {})
            service.n_requests = int(counters.get("n_requests", 0))
            service.n_admitted = int(counters.get("n_admitted", 0))
            for node_id in snapshot.get("failed_nodes", []):
                topology.fail_node(str(node_id))
            for payload in snapshot.get("connections", []):
                record = codec.dict_to_record(payload)
                service.controller.restore(
                    record.spec,
                    record.h_source,
                    record.h_dest,
                    route=record.route,
                    delay_bound=record.delay_bound,
                )
                n_snapshot_records += 1
        tail = store.scan_tail(after_seq=snap_seq)
        for journal_record in tail.records:
            service._replay(journal_record.op, journal_record.data)
        service.controller.refresh_bounds()
        store.open_for_append(
            JournalTail(
                records=tail.records,
                good_bytes=tail.good_bytes,
                truncated=tail.truncated,
                corruption=tail.corruption,
            )
        )
        # open_for_append derives the next seq from the (filtered) tail;
        # when the tail is empty the snapshot seq is the high-water mark.
        if not tail.records:
            store.next_seq = snap_seq + 1
        _raise_on_leaks(service.controller, "restored state leaks synchronous bandwidth")
        report = RestoreReport(
            snapshot_seq=snap_seq,
            n_snapshot_records=n_snapshot_records,
            n_replayed=len(tail.records),
            truncated_tail=tail.truncated,
            corruption=tail.corruption,
            signature=service.signature(),
            n_requests=service.n_requests,
            n_admitted=service.n_admitted,
            n_active=len(service.controller.connections),
        )
        return service, report

    def _replay(self, op: str, data: Dict[str, Any]) -> None:
        if op == "admit":
            record = codec.dict_to_record(data)
            self.controller.restore(
                record.spec,
                record.h_source,
                record.h_dest,
                route=record.route,
                delay_bound=record.delay_bound,
            )
            self.n_requests += 1
            self.n_admitted += 1
        elif op == "reject":
            self.n_requests += 1
        elif op == "release":
            conn_id = str(data["conn_id"])
            if conn_id not in self.controller.connections:
                raise JournalError(
                    f"journal releases unknown connection {conn_id!r}"
                )
            self.controller.release(conn_id)
        elif op == "fault":
            self.controller.topology.fail_node(str(data["node"]))
        elif op == "repair":
            self.controller.topology.restore_node(str(data["node"]))
        else:  # pragma: no cover - scan_journal rejects unknown ops
            raise JournalError(f"unknown journal op {op!r}")

    # -- metrics ---------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The full metrics surface (front-end ``metrics`` op, benches)."""
        out = self.metrics.to_dict()
        out.update(
            {
                "n_requests": self.n_requests,
                "n_admitted": self.n_admitted,
                "n_active": len(self.controller.connections),
                "queue_depth": len(self._queue),
                "ladder_level": self.ladder.level,
                "ladder_ewma": self.ladder.ewma,
                "ladder_transitions": [
                    t.describe() for t in self.ladder.transitions
                ],
                "journal_seq": (
                    0 if self.journal is None else self.journal.next_seq - 1
                ),
            }
        )
        return out

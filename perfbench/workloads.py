"""The benchmark's workloads: inputs from a seed, timed phases, checks.

Every workload is a closed loop: one caller (two for service-repeat)
issues the next admit or release only after the previous verdict came
back.  A phase runs until ``seconds`` of wall clock have passed *and*
the workload's fixed prefix of admit requests is complete; the prefix
carries the pinned verdict digest, ``admit_fraction`` and the peak RSS,
so all three are fixed amounts of work for a seed however fast the
machine is.  Between every two ops (every round, for service-repeat) the
caller times the reference kernel of ``speed.py``, never inside an op's
timing.  See README.md for why each workload exists and what it
predicts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import json
import math
import os
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.config import (
    CACConfig,
    NetworkConfig,
    ServiceConfig,
    SimulationConfig,
    build_network,
)
from repro.core.cac import AdmissionController
from repro.experiments.common import CALIBRATED_LOAD_SCALE
from repro.network.connection import ConnectionRecord, ConnectionSpec
from repro.service.bench import scenario_spec
from repro.service.codec import traffic_to_dict
from repro.service.frontend import handle_connection
from repro.service.server import ADMITTED, REJECTED, RELEASED, AdmissionService
from repro.sim.connection_sim import ConnectionSimConfig, ConnectionSimulator
from repro.sim.engine import Simulator
from repro.traffic.dual_periodic import DualPeriodicTraffic

from speed import SpeedGauge
from tracer import Tracer

perf_counter = time.perf_counter
T = TypeVar("T")

#: Scratch space inside the checkout (journals, span files); git-ignored.
SCRATCH = str(Path(__file__).resolve().parent.parent / ".perfbench")

#: Ledger discrepancies below this are float noise (the service's and the
#: survivability audit's tolerance).
LEAK_TOLERANCE = 1e-9
#: Slack on "bound <= deadline" (the CAC's own feasibility slack).
DEADLINE_SLACK = 1e-12
#: A verdict the front-end must return within this many seconds.
CLIENT_TIMEOUT_S = 60.0
#: Kernel timings before each set-up, so the host's speed during set-up
#: counts in the gauge too.
SETUP_TICKS = 10


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def before_setup(gauge: SpeedGauge) -> None:
    """Untimed: collect the previous set-up's garbage, so every set-up
    starts from the same heap, then read the host's speed."""
    gc.collect()
    for _ in range(SETUP_TICKS):
        gauge.tick()


class Recorder:
    """Latency samples, the verdict prefix and failures of one caller."""

    def __init__(self, quota: int) -> None:
        #: Admit requests in the deterministic prefix still to come.
        self.quota_left = quota
        self.admit_s: List[float] = []
        self.release_s: List[float] = []
        self.prefix: List[Tuple[str, str]] = []
        self.prefix_admits = 0
        self.prefix_admitted = 0
        #: ``ru_maxrss`` (KiB) when the prefix completed; 0 until then.
        self.prefix_rss_kib = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def quota_met(self) -> bool:
        return self.quota_left == 0

    def admit(
        self,
        spec: ConnectionSpec,
        verdict: str,
        seconds: float,
        bound: Optional[float],
    ) -> None:
        self.attempted += 1
        if verdict in (ADMITTED, REJECTED):
            self.admit_s.append(seconds)
        else:
            self.fail(f"admit {spec.conn_id}: verdict {verdict}")
        if verdict == ADMITTED and (
            bound is None or bound > spec.deadline + DEADLINE_SLACK
        ):
            self.fail(f"admit {spec.conn_id}: bound {bound} > deadline {spec.deadline}")
        if self.quota_left > 0:
            self.quota_left -= 1
            self.prefix_admits += 1
            self.prefix_admitted += verdict == ADMITTED
            self.prefix.append((spec.conn_id, verdict))
            if self.quota_left == 0:
                self.prefix_rss_kib = peak_rss_kib()

    def release(self, conn_id: str, verdict: str, seconds: float) -> None:
        self.attempted += 1
        if verdict == RELEASED:
            self.release_s.append(seconds)
        else:
            self.fail(f"release {conn_id}: verdict {verdict}")
        if self.quota_left > 0:
            self.prefix.append((conn_id, verdict))

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def extend(self, other: "Recorder") -> None:
        """Append another caller's record (prefixes concatenate in call
        order, so the combined digest stays deterministic)."""
        self.admit_s += other.admit_s
        self.release_s += other.release_s
        self.prefix += other.prefix
        self.prefix_admits += other.prefix_admits
        self.prefix_admitted += other.prefix_admitted
        self.prefix_rss_kib = max(self.prefix_rss_kib, other.prefix_rss_kib)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


@dataclasses.dataclass
class Phase:
    """Everything one timed phase measured."""

    record: Recorder
    #: Wall time of each set-up, seconds (first call into repro to the
    #: first timed op).
    setup_s: List[float]
    #: Wall time of the timed phase(s) less the kernel timings, seconds.
    wall_s: float = 0.0
    #: Deltas of the program's own counters over the timed phase.
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Reference-kernel timings over set-ups and timed phase(s).
    gauge: SpeedGauge = dataclasses.field(default_factory=SpeedGauge)

    @property
    def ops(self) -> int:
        return len(self.record.admit_s) + len(self.record.release_s)


def audit(
    ledger_diffs: Dict[str, float],
    active: Iterable[ConnectionRecord],
    record: Recorder,
) -> None:
    """End-of-run output check: clean ledgers, every bound within deadline."""
    for ring, diff in ledger_diffs.items():
        if abs(diff) > LEAK_TOLERANCE:
            record.fail(f"ledger leak on {ring}: {diff:+.3e}s")
    for rec in active:
        bound = rec.delay_bound
        if bound is None or bound > rec.spec.deadline + DEADLINE_SLACK:
            record.fail(f"{rec.conn_id}: bound {bound} exceeds deadline {rec.spec.deadline}")


def program_counters(
    controllers: List[AdmissionController], events: int = 0
) -> Dict[str, float]:
    """Cumulative counters the program keeps itself (cache and engine
    statistics, simulator events)."""
    out: Dict[str, float] = {"sim.events": float(events)}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for cac in controllers:
        for cache, stats in cac.analyzer.cache_stats().items():
            for field in ("hits", "misses", "size"):
                add(f"delay.cache.{cache}.{field}", float(stats[field]))
        if cac.engine is not None:
            for field, value in cac.engine.stats().items():
                if field != "reuse_fraction":
                    add(f"incremental.{field}", float(value))
    return out


def counter_delta(
    start: Dict[str, float], end: Dict[str, float]
) -> Dict[str, float]:
    """End minus start for counters; sizes are levels, taken at the end."""
    return {
        key: value if key.endswith(".size") else value - start.get(key, 0.0)
        for key, value in end.items()
    }


def merge_counters(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        if key.endswith(".size"):
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0.0) + value


#: How the service's own figures combine over episodes: counts add up,
#: levels keep their largest value, the median keeps the first episode's.
SERVICE_MERGE = {
    "service.journal.bytes": "sum",
    "service.decide_ms_p50": "first",
    "service.shards": "max",
    "service.merges": "sum",
    "service.queue_high_water": "max",
    "service.ladder_transitions": "sum",
}


def merge_service_counters(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        if key not in into:
            into[key] = value
        elif SERVICE_MERGE[key] == "sum":
            into[key] += value
        elif SERVICE_MERGE[key] == "max":
            into[key] = max(into[key], value)


def _shuffled_rounds(rng: random.Random, items: Iterable[T]) -> Iterator[T]:
    """Endless draws in rounds: each round is a fresh shuffle of ``items``."""
    pool = list(items)
    while True:
        rng.shuffle(pool)
        yield from pool


def _traffic(c1: float, p1: float, c2: float, p2: float) -> DualPeriodicTraffic:
    return DualPeriodicTraffic(c1=c1, p1=p1, c2=c2, p2=p2)


# ---------------------------------------------------------------------------
# paper-u09: Figure 7/8's load through ConnectionSimulator (not gated)
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Ends a simulator run from inside its request hook."""


@dataclasses.dataclass(frozen=True)
class PaperLoad:
    """The 3-ring reference network under the paper's jittered
    dual-periodic workload, driven by :class:`ConnectionSimulator`.

    A phase runs ``trajectories`` independent simulations, with seeds
    drawn from the benchmark seed, one after another; each gets an equal
    share of the phase's seconds and of its admit prefix, so no single
    trajectory sets a whole run's percentiles.
    """

    utilization: float
    beta: float = 0.5
    trajectories: int = 3
    #: Requests of each trajectory's warm-up (its set-up).
    warmup: int = 30
    #: Admit requests in the deterministic prefix, over all trajectories.
    prefix_admits: int = 150

    def run(
        self, seed: int, seconds: float, setups: int, tracer: Optional[Tracer]
    ) -> Phase:
        rng = random.Random(f"paper:{seed}")
        sub_seeds = [rng.randrange(1, 2**31) for _ in range(self.trajectories)]
        quota = math.ceil(self.prefix_admits / self.trajectories)
        phase = Phase(record=Recorder(0), setup_s=[])
        for sub_seed in sub_seeds:
            record = Recorder(quota)
            self._trajectory(sub_seed, seconds / self.trajectories, record, phase, tracer)
            phase.record.extend(record)
        return phase

    def _trajectory(
        self,
        seed: int,
        seconds: float,
        record: Recorder,
        phase: Phase,
        tracer: Optional[Tracer],
    ) -> None:
        config = ConnectionSimConfig(
            utilization=self.utilization,
            beta=self.beta,
            seed=seed,
            n_requests=10**9,
            warmup_requests=0,
            simulation=SimulationConfig(load_scale=CALIBRATED_LOAD_SCALE),
        )
        before_setup(phase.gauge)
        t_setup = perf_counter()
        sim = ConnectionSimulator(config)
        cac = sim.cac
        state: Dict[str, Any] = {"seen": 0, "t0": None}

        def start_timing() -> None:
            now = perf_counter()
            phase.setup_s.append(now - t_setup)
            state["counters"] = program_counters([cac], sim.sim.events_processed)
            state["spent"] = phase.gauge.spent_s
            if tracer is not None:
                tracer.install()
            state["t0"] = perf_counter()

        def request(spec: ConnectionSpec) -> Any:
            if state["seen"] == self.warmup:
                start_timing()
            state["seen"] += 1
            timed = state["t0"] is not None
            if timed and record.quota_met and perf_counter() - state["t0"] >= seconds:
                raise _Stop
            t0 = perf_counter()
            try:
                result = AdmissionController.request(cac, spec)
            except Exception as exc:
                if timed:
                    record.admit(spec, f"ERROR {type(exc).__name__}", 0.0, None)
                raise
            elapsed = perf_counter() - t0
            if timed:
                verdict = ADMITTED if result.admitted else REJECTED
                record.admit(spec, verdict, elapsed, result.delay_bound)
            phase.gauge.tick()
            return result

        def release(conn_id: str) -> Any:
            t0 = perf_counter()
            try:
                released = AdmissionController.release(cac, conn_id)
            except Exception as exc:
                if state["t0"] is not None:
                    record.release(conn_id, f"ERROR {type(exc).__name__}", 0.0)
                raise
            if state["t0"] is not None:
                record.release(conn_id, RELEASED, perf_counter() - t0)
            return released

        cac.request = request  # type: ignore[method-assign]
        cac.release = release  # type: ignore[method-assign]
        try:
            sim.run()
        except _Stop:
            pass
        else:
            record.fail("simulation ended before the phase did")
        finally:
            t_end = perf_counter()
            if tracer is not None:
                tracer.uninstall()
        if state["t0"] is None:
            record.fail("warm-up never finished")
            return
        phase.wall_s += t_end - state["t0"] - (phase.gauge.spent_s - state["spent"])
        merge_counters(
            phase.counters,
            counter_delta(
                state["counters"], program_counters([cac], sim.sim.events_processed)
            ),
        )
        audit(cac.audit_allocations(), cac.connections.values(), record)


# ---------------------------------------------------------------------------
# campus-churn: 8 disjoint ring pairs, admit/release churn inside pairs
# ---------------------------------------------------------------------------

#: Standing population: the 4 Mbps source of the CAC macro bench.
CAMPUS_STANDING = (60_000.0, 0.015, 30_000.0, 0.005)
CAMPUS_STANDING_DEADLINE = 0.09

#: Churn traffic classes: ((c1, p1, c2, p2), deadlines drawn, weight).
#: The last class asks for less than two token rotations of delay, which
#: no allocation can meet: a steady share of cheap, certain rejections.
CAMPUS_CLASSES: Tuple[Tuple[Tuple[float, float, float, float], Tuple[float, ...], int], ...] = (
    ((30_000.0, 0.015, 15_000.0, 0.005), (0.07, 0.09), 3),
    ((60_000.0, 0.015, 30_000.0, 0.005), (0.08, 0.1), 3),
    ((100_000.0, 0.015, 50_000.0, 0.005), (0.1,), 1),
    ((30_000.0, 0.015, 15_000.0, 0.005), (0.012,), 1),
)
#: Burst sizes are scaled by a factor drawn from 1 +- this, as the paper's
#: workload does, so no two churn connections share an envelope and the
#: analyzer caches cannot answer a churn connection's own stages.
CAMPUS_JITTER = 0.2
#: Simulated time between two churn operations, seconds.
CAMPUS_OP_GAP_S = 1.0


@dataclasses.dataclass(frozen=True)
class CampusChurn:
    """16 rings as 8 disjoint pairs, each with a standing population;
    one caller toggles one churn connection per pair."""

    n_rings: int = 16
    standing_per_pair: int = 7
    prefix_admits: int = 150

    def _pairs(self) -> List[Tuple[int, int]]:
        return [(a, a + 1) for a in range(1, self.n_rings, 2)]

    def _setup(self, record: Recorder) -> AdmissionController:
        network = NetworkConfig(n_rings=self.n_rings)
        cac = AdmissionController(
            build_network(network),
            network_config=network,
            cac_config=CACConfig(beta=0.5),
        )
        traffic = _traffic(*CAMPUS_STANDING)
        for a, b in self._pairs():
            for j in range(self.standing_per_pair):
                spec = ConnectionSpec(
                    f"bg{a}-{j}",
                    f"host{a}-{(j % 4) + 1}",
                    f"host{b}-{((j + 1) % 4) + 1}",
                    traffic,
                    CAMPUS_STANDING_DEADLINE,
                )
                if not cac.request(spec).admitted:
                    record.fail(f"standing connection {spec.conn_id} rejected")
        return cac

    def run(
        self, seed: int, seconds: float, setups: int, tracer: Optional[Tracer]
    ) -> Phase:
        record = Recorder(self.prefix_admits)
        phase = Phase(record=record, setup_s=[])
        gauge = phase.gauge
        for _ in range(setups):
            cac = None  # the previous set-up is garbage before the next
            before_setup(gauge)
            t0 = perf_counter()
            cac = self._setup(record)
            phase.setup_s.append(perf_counter() - t0)
        rng = random.Random(f"campus-churn:{seed}")
        pairs = self._pairs()
        live: Dict[int, Optional[str]] = {i: None for i in range(len(pairs))}
        # Stratified draws: every round visits each pair once, and every
        # 8 admits hold the class weights exactly, so seeds differ in
        # order, hosts, deadlines and jitter but not in the mix.
        pair_draws = _shuffled_rounds(rng, range(len(pairs)))
        class_draws = _shuffled_rounds(
            rng, [c for c in CAMPUS_CLASSES for _ in range(c[2])]
        )
        direction_draws = _shuffled_rounds(rng, (False, True))
        counter = itertools.count(1)

        def one_op() -> None:
            p = next(pair_draws)
            conn_id = live[p]
            if conn_id is not None:
                live[p] = None
                t0 = perf_counter()
                cac.release(conn_id)
                record.release(conn_id, RELEASED, perf_counter() - t0)
                return
            a, b = pairs[p]
            if next(direction_draws):
                a, b = b, a
            (c1, p1, c2, p2), deadlines, _ = next(class_draws)
            factor = rng.uniform(1.0 - CAMPUS_JITTER, 1.0 + CAMPUS_JITTER)
            spec = ConnectionSpec(
                f"cc-{next(counter)}",
                f"host{a}-{rng.randrange(1, 5)}",
                f"host{b}-{rng.randrange(1, 5)}",
                _traffic(c1 * factor, p1, c2 * factor, p2),
                rng.choice(deadlines),
            )
            t0 = perf_counter()
            result = cac.request(spec)
            elapsed = perf_counter() - t0
            record.admit(
                spec, ADMITTED if result.admitted else REJECTED, elapsed, result.delay_bound
            )
            if result.admitted:
                live[p] = spec.conn_id

        # The caller is an event chain on the simulator kernel: each op
        # schedules the next once its verdict is in (a closed loop).
        sim = Simulator()

        def on_event() -> None:
            try:
                one_op()
            except Exception as exc:
                record.fail(f"churn raised {type(exc).__name__}: {exc}")
                return
            gauge.tick()
            if not (record.quota_met and perf_counter() - t_start >= seconds):
                sim.schedule(CAMPUS_OP_GAP_S, on_event)

        start = program_counters([cac])
        spent = gauge.spent_s
        if tracer is not None:
            tracer.install()
        t_start = perf_counter()
        sim.schedule(0.0, on_event)
        try:
            sim.run()
        finally:
            phase.wall_s = perf_counter() - t_start - (gauge.spent_s - spent)
            if tracer is not None:
                tracer.uninstall()
        phase.counters = counter_delta(
            start, program_counters([cac], sim.events_processed)
        )
        audit(cac.audit_allocations(), cac.connections.values(), record)
        return phase


# ---------------------------------------------------------------------------
# service-repeat: the admission service over its JSON-lines front end
# ---------------------------------------------------------------------------

#: The request shapes the clients repeat: (source, dest, traffic, deadline)
#: on the service bench's 6-ring network (pairs 1-2, 3-4, 5-6).  Each one
#: fits beside the standing population and both clients' live
#: connections, so every verdict is ADMITTED whatever the interleaving.
#: (A shape that is always rejected breaks the clients' lock-step and
#: makes release latency bimodal: see README.md.)
SERVICE_SHAPES: Tuple[Tuple[str, str, Tuple[float, float, float, float], float], ...] = (
    ("host1-2", "host2-3", (60_000.0, 0.015, 30_000.0, 0.005), 0.09),
    ("host3-2", "host4-3", (60_000.0, 0.015, 30_000.0, 0.005), 0.09),
    ("host5-2", "host6-3", (60_000.0, 0.015, 30_000.0, 0.005), 0.09),
    ("host2-1", "host1-4", (30_000.0, 0.015, 15_000.0, 0.005), 0.06),
    ("host4-1", "host3-4", (30_000.0, 0.015, 15_000.0, 0.005), 0.06),
)


@dataclasses.dataclass(frozen=True)
class ServiceRepeat:
    """``AdmissionService`` with the default ``ServiceConfig`` behind its
    TCP front end; two closed-loop clients repeat admit->release pairs.

    The clients run in rounds: in each, every client sends one admit and,
    once it is admitted, its release; the reference kernel is timed
    between rounds, when no request is in flight.  With ``workers=0``
    the two clients fall into this lock-step anyway (see README.md).

    A run is a sequence of episodes, each on a fresh service and each
    running the prefix's rounds, until ``seconds`` have passed; the
    episodes' set-ups are the run's set-ups, so ``setups`` is unused."""

    clients: int = 2
    prefix_admits: int = 1000

    def run(
        self, seed: int, seconds: float, setups: int, tracer: Optional[Tracer]
    ) -> Phase:
        return asyncio.run(self._run(seed, seconds, setups, tracer))

    async def _setup(self, record: Recorder) -> "_Served":
        spec = scenario_spec()
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=SCRATCH)
        service = AdmissionService(
            build_network(spec.topology),
            network_config=spec.topology,
            service_config=ServiceConfig(),
            journal_dir=journal_dir,
        )
        await service.start()
        for entry in spec.connections:
            response = await service.submit_admit(
                ConnectionSpec(
                    entry.conn_id,
                    entry.source_host,
                    entry.dest_host,
                    entry.traffic,
                    entry.deadline,
                )
            )
            if response.verdict != ADMITTED:
                record.fail(f"standing connection {entry.conn_id}: {response.verdict}")

        async def on_client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            await handle_connection(service, reader, writer)

        server = await asyncio.start_server(on_client, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        streams = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(self.clients)
        ]
        return _Served(service, server, streams, journal_dir, spec.topology)

    async def _run(
        self, seed: int, seconds: float, setups: int, tracer: Optional[Tracer]
    ) -> Phase:
        phase = Phase(record=Recorder(0), setup_s=[])
        t_start = perf_counter()
        while not phase.setup_s or perf_counter() - t_start < seconds:
            if not await self._episode(seed, phase, tracer):
                break
        return phase

    async def _episode(self, seed: int, phase: Phase, tracer: Optional[Tracer]) -> bool:
        """Set up a fresh service, run the prefix's rounds through it, check
        it and close it; False if a client broke."""
        gauge = phase.gauge
        record = Recorder(0)
        before_setup(gauge)
        t0 = perf_counter()
        served = await self._setup(record)
        phase.setup_s.append(perf_counter() - t0)
        service = served.service
        journal_path = service.journal.journal_path
        start = program_counters(served.controllers())
        journal_start = os.path.getsize(journal_path)
        # Only the first episode's clients carry the prefix; later episodes
        # repeat the same requests on a fresh service.
        quota = 0 if phase.record.prefix_admits else self.prefix_admits // self.clients
        clients = [_Client(k, served.streams[k], Recorder(quota)) for k in range(self.clients)]
        # Stratified draws: every block of 25 rounds sends each pairing of
        # two shapes once, so the admits decided back to back (see the
        # class docstring) hold the same mix on every seed.
        shapes = [
            (src, dst, traffic_to_dict(_traffic(*shape)), _traffic(*shape), deadline)
            for src, dst, shape, deadline in SERVICE_SHAPES
        ]
        draws = _shuffled_rounds(
            random.Random(f"service-repeat:{seed}"),
            list(itertools.product(shapes, repeat=self.clients)),
        )
        spent = gauge.spent_s
        ok = True
        if tracer is not None:
            tracer.install()
        t_start = perf_counter()
        try:
            for _ in range(self.prefix_admits // self.clients):
                pairing = next(draws)
                ok = all(await asyncio.gather(*(c.round(pairing[c.k]) for c in clients)))
                if not ok:
                    break
                gauge.tick()
        finally:
            phase.wall_s += perf_counter() - t_start - (gauge.spent_s - spent)
            if tracer is not None:
                tracer.uninstall()
        for client in clients:
            record.extend(client.record)
        merge_counters(
            phase.counters, counter_delta(start, program_counters(served.controllers()))
        )
        merge_service_counters(
            phase.counters,
            {
                "service.journal.bytes": float(os.path.getsize(journal_path) - journal_start),
                "service.decide_ms_p50": service.metrics.percentile(0.5) * 1000.0,
                "service.shards": float(len(service.state.shards)),
                "service.merges": float(service.state.n_merges),
                "service.queue_high_water": float(service.metrics.queue_high_water),
                "service.ladder_transitions": float(len(service.ladder.transitions)),
            },
        )
        self._check(served, record)
        await served.close(record)
        phase.record.extend(record)
        return ok

    def _check(self, served: "_Served", record: Recorder) -> None:
        service = served.service
        audit(service.state.audit_allocations(), service.state.active.values(), record)
        if service.ladder.transitions:
            record.fail(
                f"{len(service.ladder.transitions)} ladder transitions: "
                "decisions ran coarsened"
            )
        live = service.signature()
        restored, report = AdmissionService.restore(
            build_network(served.network),
            served.journal_dir,
            network_config=served.network,
            service_config=ServiceConfig(),
        )
        restored.journal.close()
        if report.signature != live:
            record.fail("journal restore does not reproduce the live signature")


class _Client:
    """One closed-loop client of service-repeat on its own connection."""

    def __init__(
        self,
        k: int,
        stream: Tuple[asyncio.StreamReader, asyncio.StreamWriter],
        record: Recorder,
    ) -> None:
        self.k = k
        self.reader, self.writer = stream
        self.record = record
        self.n = 0

    async def _call(self, payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        line = (json.dumps(payload) + "\n").encode()
        t0 = perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        reply = await asyncio.wait_for(self.reader.readline(), CLIENT_TIMEOUT_S)
        elapsed = perf_counter() - t0
        return json.loads(reply), elapsed

    async def round(self, shape: Tuple[Any, ...]) -> bool:
        """One admit of ``shape`` and, if admitted, its release; False
        once broken."""
        record = self.record
        self.n += 1
        src, dst, traffic_dict, traffic, deadline = shape
        spec = ConnectionSpec(f"c{self.k}-{self.n}", src, dst, traffic, deadline)
        try:
            answer, elapsed = await self._call(
                {
                    "op": "admit",
                    "conn_id": spec.conn_id,
                    "source_host": src,
                    "dest_host": dst,
                    "traffic": traffic_dict,
                    "deadline": deadline,
                }
            )
            verdict = answer.get("verdict", "?")
            record.admit(spec, verdict, elapsed, answer.get("delay_bound"))
            if verdict == ADMITTED:
                answer, elapsed = await self._call(
                    {"op": "release", "conn_id": spec.conn_id}
                )
                record.release(spec.conn_id, answer.get("verdict", "?"), elapsed)
        except (asyncio.TimeoutError, ConnectionError, ValueError) as exc:
            record.fail(f"client {self.k}: {type(exc).__name__}: {exc}")
            return False
        return True


@dataclasses.dataclass
class _Served:
    service: AdmissionService
    server: asyncio.AbstractServer
    streams: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
    journal_dir: str
    network: NetworkConfig

    def controllers(self) -> List[AdmissionController]:
        return [shard.controller for shard in self.service.state.shards.values()]

    async def close(self, record: Recorder) -> None:
        for _, writer in self.streams:
            writer.close()
            await writer.wait_closed()
        self.server.close()
        await self.server.wait_closed()
        try:
            await self.service.stop()
        except Exception as exc:  # the shutdown audit raises on leaks
            record.fail(f"service stop: {type(exc).__name__}: {exc}")
        shutil.rmtree(self.journal_dir, ignore_errors=True)


#: Workload name -> runner.  ``paper-u09`` is runnable but not part of
#: BENCHMARK.json: its medians are not steady (see README.md).
WORKLOADS: Dict[str, Any] = {
    "campus-churn": CampusChurn(),
    "service-repeat": ServiceRepeat(),
    "paper-u09": PaperLoad(utilization=0.9),
}

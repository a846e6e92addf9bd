"""The decomposition delay engine (Section 4, Eq. 7).

Given the network topology and the set of connections with their
synchronous-bandwidth allocations, the engine:

1. builds each connection's server chain (FDDI MAC -> delay line -> ID_S
   stages -> ATM ports -> ID_R stages -> destination MAC -> delay line);
2. propagates traffic envelopes stage by stage.  Dedicated stages advance
   independently; a *shared* stage (an ATM output port) is analyzed exactly
   once, when every connection traversing it has delivered its envelope at
   the port entrance (feed-forward order, discovered by a worklist);
3. sums per-stage worst-case delays into the end-to-end bound of Eq. (7).

Topologies whose shared-port dependency graph is *not* feed-forward (e.g.
a unidirectional ring of switches) leave the worklist with stuck
connections; those are handed to a monotone fixed-point iteration in the
style of Amari & Mifdaoui: starting from zero, the per-port quantized
output shifts are iterated — each round re-propagates every stuck
connection's envelope through its remaining chain under the assumed
shifts, then recomputes every unresolved port's delay from the collected
entrance envelopes — until the shift vector repeats exactly.  Because the
shift map is monotone non-decreasing on the ``output_delay_quantum``
lattice, exact repetition is the convergence criterion (with a zero
quantum the test degrades to a relative tolerance,
:data:`FIXED_POINT_RTOL`).  Non-convergence within
``fixed_point_max_iterations`` raises
:class:`~repro.errors.FixedPointDivergenceError` — the cycle admits no
stable bound at this load, which admission control treats as infeasible.
Feed-forward topologies never enter the iteration, so their results are
byte-identical to the plain worklist.

Any stage may raise :class:`UnstableSystemError` or
:class:`BufferOverflowError`; callers (the CAC) treat these as "worst-case
delay is infinite" — automatic infeasibility.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.config import AnalysisConfig, NetworkConfig
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import PlanCache
from repro.errors import CyclicDependencyError, FixedPointDivergenceError
from repro.fddi.mac_server import FDDIMacServer
from repro.interface_device.cell_frame import CellFrameConversionServer
from repro.interface_device.frame_cell import FrameCellConversionServer
from repro.lru import IdMemo, Interner, LRUCache
from repro.network.connection import ConnectionSpec
from repro.network.routing import Route
from repro.network.topology import NetworkTopology
from repro.atm.link import AtmLink
from repro.atm.output_port import OutputPortServer
from repro.servers.base import DedicatedServer
from repro.servers.constant import ConstantDelayServer

#: Entry budget of each of the analyzer's LRU caches and intern tables.
STAGE_CACHE_SIZE = 20_000
#: Fixed-point convergence tolerance, used only when
#: ``output_delay_quantum`` is 0 (shifts are then continuous, so exact
#: repetition is replaced by a relative-change test).  It errs low: the
#: iterates climb towards the least fixed point from below, so stopping on
#: a small step can leave the shifts under it.
FIXED_POINT_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class DedicatedStage:
    name: str
    server: DedicatedServer


@dataclasses.dataclass(frozen=True)
class SharedStage:
    name: str
    port: OutputPortServer


Stage = Union[DedicatedStage, SharedStage]


class _Run(NamedTuple):
    """One maximal run of dedicated stages, ``stages[start:end]``."""

    end: int
    #: Interned id of the run's server cache keys: the segment-cache key.
    run_id: int
    #: The run's stage names, for the hop lists.
    names: Tuple[str, ...]


class _Chain(NamedTuple):
    """A connection's server chain, ready for propagation.

    The *terminal* run is the run after the chain's last shared port (the
    whole chain for a ring-local connection).  Only delay lines follow its
    last other stage, the ``tail``, and a delay line's bounds ignore its
    input, so no bound reads the outputs from the tail on.  The engine
    analyzes those stages for their bounds only; the terminal run's
    segment-cache key is interned apart from every other run's, so its
    bounds-only entries never answer a run that needs an output.
    """

    stages: Sequence[Stage]
    #: Index of each run's first stage -> the run.
    runs: Dict[int, _Run]
    #: Names of the shared-port stages, in chain order.
    ports: Tuple[str, ...]
    #: Index of the terminal run's first stage.
    terminal: int
    #: Index of the first stage whose output no bound reads.
    tail: int


class _Skeleton(NamedTuple):
    """A chain with its allocation-dependent stages still open.

    ``chain`` holds the stages of the load it was built from; ``macs``
    lists ``(stage index, run start)`` of each FDDI MAC stage, source
    first.  A MAC run's ``run_id`` is the id of its server keys with the
    MAC's key left out, and a chain built from the skeleton interns it
    together with its own MAC's key.
    """

    chain: _Chain
    macs: Tuple[Tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class RegulatorSpec:
    """Optional ingress shaping contract (ref [15]): release at most
    ``sigma + rho * t`` bits (capped at ``peak``) into the ATM backbone."""

    sigma: float
    rho: float
    peak: float = float("inf")


@dataclasses.dataclass(frozen=True)
class ConnectionLoad:
    """One connection as the delay engine sees it: spec + route + grants."""

    spec: ConnectionSpec
    route: Route
    h_source: float
    h_dest: float
    #: When set, a greedy shaper is inserted at the sending interface device
    #: (after frame->cell conversion, before the ATM output port).
    regulator: Optional[RegulatorSpec] = None


@dataclasses.dataclass(frozen=True)
class DelayReport:
    """Per-connection analysis result."""

    conn_id: str
    total_delay: float
    per_hop: Tuple[Tuple[str, float], ...]
    #: Worst-case backlog contributed at each *dedicated* hop (bits); shared
    #: ports report an aggregate backlog via ResourceUsage instead.
    per_hop_backlog: Tuple[Tuple[str, float], ...]
    #: Computes :attr:`output`.
    replay: Callable[[], Curve] = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def output(self) -> Curve:
        """The connection's envelope at the exit of its chain.

        No bound reads it, so the engine does not compute it: the first
        read replays the stages from the chain's tail with outputs (see
        :class:`_Chain`) and keeps the curve.  It is the curve an eager
        walk of the whole chain gives, bit for bit.
        """
        return self.replay()

    def hop_delay(self, name_fragment: str) -> float:
        """Sum of delays at hops whose name contains ``name_fragment``."""
        return sum(d for n, d in self.per_hop if name_fragment in n)


@dataclasses.dataclass(frozen=True)
class ResourceUsage:
    """Aggregate, per-resource figures from one delay computation."""

    #: Worst-case aggregate backlog at each shared output port (bits).
    port_backlogs: Dict[str, float]
    #: Busy interval of each shared output port (seconds).
    port_busy_intervals: Dict[str, float]
    #: FIFO delay bound at each shared output port (seconds).
    port_delays: Dict[str, float]


def _switch_hops(
    topology: NetworkTopology, route: Route
) -> List[Tuple[str, OutputPortServer, AtmLink]]:
    """The backbone walk of ``route``: ``(switch_id, port, link)`` for each
    switch on its path, where ``port`` feeds ``link`` to the next switch
    or, at the last switch, down to the destination device.

    The one route walk: :func:`route_port_names` and
    :meth:`DelayAnalyzer.build_stages` both read their ports from it.
    """
    path = route.switch_path
    hops = []
    for idx, switch_id in enumerate(path):
        if idx + 1 < len(path):
            nxt = path[idx + 1]
            port = topology.switch_port(switch_id, nxt)
            link = topology.switch_link(switch_id, nxt)
        else:
            port = topology.downlink_port(switch_id, route.dest_device)
            link = topology.downlink(switch_id, route.dest_device)
        hops.append((switch_id, port, link))
    return hops


def route_port_names(topology: NetworkTopology, route: Route) -> Tuple[str, ...]:
    """Names of the shared (ATM output-port) stages along ``route``.

    This is the route's interference footprint: two connections can affect
    each other's delay analysis only through ports both traverse.
    """
    if not route.crosses_backbone:
        return ()
    uplink = topology.devices[route.source_device].uplink_port
    return (uplink.name, *(port.name for _, port, _ in _switch_hops(topology, route)))


class DelayAnalyzer:
    """Builds server chains and computes worst-case end-to-end delays."""

    def __init__(
        self,
        topology: NetworkTopology,
        network_config: Optional[NetworkConfig] = None,
        analysis_config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.topology = topology
        self.network_config = network_config or NetworkConfig()
        self.analysis = analysis_config or AnalysisConfig()
        #: Cache of dedicated-stage analyses keyed by (server key, envelope
        #: fingerprint) — hit heavily by binary-search probes, where most
        #: connections' upstream stages are unchanged.
        self._stage_cache = LRUCache(STAGE_CACHE_SIZE)
        #: Cache of source envelopes keyed by the traffic descriptor.
        self._envelope_cache = LRUCache(STAGE_CACHE_SIZE)
        #: Cache of whole dedicated-stage *runs* keyed by (segment servers,
        #: input-envelope fingerprint).  A hit replays the per-stage delays
        #: and the final tidied envelope without touching any server — the
        #: dominant cost of a repeat probe is otherwise the per-stage walk
        #: (fingerprints, simplify/coarsen) even when every stage hits the
        #: stage cache.
        self._segment_cache = LRUCache(STAGE_CACHE_SIZE)
        #: Chain skeletons keyed by what the chain depends on apart from
        #: the two MAC allocations: route, regulator, the frame sizes the
        #: frame-cell and cell-frame servers read (they saturate at
        #: ``max_frame_bits`` for most allocations) and the topology
        #: version.  A probe copies its skeleton and builds only its two
        #: MAC stages.
        self._skeletons = LRUCache(STAGE_CACHE_SIZE)
        #: ConnectionLoad -> (topology version, chain): standing loads
        #: persist across probes, so each builds its chain once.
        self._chain_memo = IdMemo()
        #: Dedicated runs' server-key tuples interned to ints, so the
        #: segment cache hashes ``(run id, fingerprint)``.
        self._run_ids = Interner(STAGE_CACHE_SIZE)
        #: Theorem-1 plans shared by every MAC server this analyzer
        #: builds: the probes of one decision rerun Theorem 1 on the same
        #: arrival with another allocation.
        self._plans = PlanCache()

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters of the analyzer's internal caches."""
        return {
            "stage": self._stage_cache.stats(),
            "envelope": self._envelope_cache.stats(),
            "segment": self._segment_cache.stats(),
            "chain": self._skeletons.stats(),
            "plan": self._plans.stats(),
        }

    # ------------------------------------------------------------------
    # Stage construction
    # ------------------------------------------------------------------

    def frame_bits_for(self, sync_time: float) -> float:
        """The frame size ``F_S = H * BW`` capped by the FDDI maximum."""
        raw = sync_time * self.network_config.fddi_bandwidth
        return max(1.0, min(raw, self.network_config.max_frame_bits))

    def build_stages(self, load: ConnectionLoad) -> List[Stage]:
        """The ordered server chain for one connection."""
        topo = self.topology
        route = load.route
        ring_s = topo.rings[route.source_ring]
        stages: List[Stage] = [
            self._mac_stage(load, source=True),
            DedicatedStage(
                f"delay-line:{route.source_ring}",
                ConstantDelayServer(ring_s.propagation_delay, name="delay-line-src"),
            ),
        ]
        if not route.crosses_backbone:
            return stages

        src_dev = topo.devices[route.source_device]
        dst_dev = topo.devices[route.dest_device]
        frame_bits_src = self.frame_bits_for(load.h_source)
        frame_bits_dst = self.frame_bits_for(load.h_dest)
        horizon = self.analysis.envelope_horizon

        stages += [
            DedicatedStage(f"{src_dev.device_id}:input-port", src_dev.input_port_server()),
            DedicatedStage(f"{src_dev.device_id}:frame-switch", src_dev.frame_switch_server()),
            DedicatedStage(
                f"{src_dev.device_id}:frame-cell",
                FrameCellConversionServer(
                    frame_bits_src,
                    processing_delay=src_dev.frame_processing_delay,
                    horizon=horizon,
                ),
            ),
        ]
        if load.regulator is not None:
            from repro.servers.regulator import RegulatorServer

            stages.append(
                DedicatedStage(
                    f"{src_dev.device_id}:regulator:{load.spec.conn_id}",
                    RegulatorServer(
                        load.regulator.sigma,
                        load.regulator.rho,
                        peak=load.regulator.peak,
                        name=f"regulator:{load.spec.conn_id}",
                    ),
                )
            )
        stages += [
            SharedStage(src_dev.uplink_port.name, src_dev.uplink_port),
            DedicatedStage(
                f"prop:{src_dev.uplink.link_id}",
                ConstantDelayServer(src_dev.uplink.propagation_delay, name="prop-uplink"),
            ),
        ]

        hops = _switch_hops(topo, route)
        for idx, (switch_id, port, link) in enumerate(hops):
            switch = topo.switches[switch_id]
            prop_name = "prop" if idx + 1 < len(hops) else "prop-downlink"
            stages += [
                DedicatedStage(
                    f"fabric:{switch_id}",
                    ConstantDelayServer(switch.fabric_delay, name=f"fabric:{switch_id}"),
                ),
                SharedStage(port.name, port),
                DedicatedStage(
                    f"prop:{link.link_id}",
                    ConstantDelayServer(link.propagation_delay, name=prop_name),
                ),
            ]

        ring_r = topo.rings[route.dest_ring]
        stages += [
            DedicatedStage(f"{dst_dev.device_id}:input-port", dst_dev.input_port_server()),
            DedicatedStage(
                f"{dst_dev.device_id}:cell-frame",
                CellFrameConversionServer(
                    frame_bits_dst,
                    processing_delay=dst_dev.frame_processing_delay,
                    horizon=horizon,
                ),
            ),
            DedicatedStage(f"{dst_dev.device_id}:frame-switch", dst_dev.frame_switch_server()),
            self._mac_stage(load, source=False),
            DedicatedStage(
                f"delay-line:{route.dest_ring}",
                ConstantDelayServer(ring_r.propagation_delay, name="delay-line-dst"),
            ),
        ]
        return stages

    def _mac_stage(self, load: ConnectionLoad, source: bool) -> DedicatedStage:
        """The source (or destination) FDDI MAC stage of ``load``."""
        route = load.route
        ring_id = route.source_ring if source else route.dest_ring
        ring = self.topology.rings[ring_id]
        conn_id = load.spec.conn_id
        return DedicatedStage(
            f"fddi-mac:{ring_id}:{conn_id}",
            FDDIMacServer(
                load.h_source if source else load.h_dest,
                ring.ttrt,
                ring.bandwidth,
                buffer_bits=self.network_config.mac_buffer_bits,
                name=f"mac-{'src' if source else 'dst'}:{conn_id}",
                plans=self._plans,
            ),
        )

    def _chain_for(self, load: ConnectionLoad) -> _Chain:
        """The server chain of ``load`` with its runs and shared ports.

        A load seen before under the same topology version gets its
        memoized chain.  Otherwise the chain is its skeleton's stages with
        the two MAC stages built for its allocations.  Servers are
        stateless analyzers, so chains are shared freely; the topology
        version retires chains built against a network that has since
        mutated.
        """
        version = self.topology.change_count
        memo = self._chain_memo.get(load)
        if memo is not None and memo[0] == version:
            return memo[1]
        skeleton = self._skeleton_for(load, version)
        stages = list(skeleton.chain.stages)
        runs = dict(skeleton.chain.runs)
        for k, (index, start) in enumerate(skeleton.macs):
            stage = self._mac_stage(load, source=k == 0)
            stages[index] = stage
            run = runs[start]
            run_id = self._run_ids((run.run_id, stage.server.cache_key()))
            runs[start] = run._replace(run_id=run_id)
        chain = skeleton.chain._replace(stages=stages, runs=runs)
        self._chain_memo.put(load, (version, chain))
        return chain

    def _skeleton_for(self, load: ConnectionLoad, version: int) -> _Skeleton:
        route = load.route
        reg = load.regulator
        key = (
            load.spec.conn_id,
            route.source_ring,
            route.dest_ring,
            route.source_device,
            route.dest_device,
            tuple(route.switch_path),
            None if reg is None else (reg.sigma, reg.rho, reg.peak),
            self.frame_bits_for(load.h_source),
            self.frame_bits_for(load.h_dest),
            version,
        )
        skeleton = self._skeletons.get(key)
        if skeleton is not None:
            return skeleton
        stages = self.build_stages(load)
        runs: Dict[int, _Run] = {}
        macs: List[Tuple[int, int]] = []
        ports: List[str] = []
        i, n = 0, len(stages)
        terminal = tail = n
        while i < n:
            stage = stages[i]
            if isinstance(stage, SharedStage):
                ports.append(stage.port.name)
                i += 1
                continue
            j = i
            seg_keys: List[Optional[tuple]] = []
            while j < n and isinstance(stages[j], DedicatedStage):
                server = stages[j].server
                if isinstance(server, FDDIMacServer):
                    # Allocation-dependent: _chain_for builds it per load
                    # and interns its key together with this run's id.
                    macs.append((j, i))
                    seg_keys.append(None)
                else:
                    seg_keys.append(server.cache_key())
                j += 1
            # A key here is a tuple of server keys and Nones, which the
            # terminal run's wraps behind a str; a MAC run's key in
            # _chain_for starts with an int, so no two forms meet.
            run_key: tuple = tuple(seg_keys)
            if j == n:
                terminal = tail = i
                for k in range(i, j):
                    if not isinstance(stages[k].server, ConstantDelayServer):
                        tail = k
                run_key = ("bounds-only", run_key)
            runs[i] = _Run(
                j,
                self._run_ids(run_key),
                tuple(s.name for s in stages[i:j]),
            )
            i = j
        skeleton = _Skeleton(
            _Chain(stages, runs, tuple(ports), terminal, tail), tuple(macs)
        )
        self._skeletons.put(key, skeleton)
        return skeleton

    # ------------------------------------------------------------------
    # Envelope propagation
    # ------------------------------------------------------------------

    def source_envelope(self, spec: ConnectionSpec) -> Curve:
        """The connection's envelope at the entrance of its source MAC."""
        try:
            cached = self._envelope_cache.get(spec.traffic)
        except TypeError:
            return spec.traffic.envelope(self.analysis.envelope_horizon)
        if cached is None:
            cached = spec.traffic.envelope(self.analysis.envelope_horizon)
            self._envelope_cache.put(spec.traffic, cached)
        return cached

    def _tidy(self, envelope: Curve) -> Curve:
        """Simplify and (if over budget) conservatively coarsen an envelope.

        Envelopes are *upper* bounds on traffic, so coarsening rounds them
        up — every downstream delay/backlog bound stays a valid upper
        bound.  The budget is ``max_envelope_segments``.
        """
        envelope = envelope.simplify()
        cap = self.analysis.max_envelope_segments
        if len(envelope.xs) > cap:
            envelope = envelope.coarsen(cap)
        return envelope

    def _analyze_dedicated(
        self, server: DedicatedServer, envelope: Curve, output: bool = True
    ):
        """Memoized ``server.analyze(envelope, output=output)``; a
        bounds-only result is keyed apart from a full one."""
        key: tuple = (server.cache_key(), envelope.fingerprint())
        if not output:
            key = ("bounds-only", *key)
        hit = self._stage_cache.get(key)
        if hit is not None:
            return hit
        result = server.analyze(envelope, output=output)
        self._stage_cache.put(key, result)
        return result

    def _replay_output(self, chain: _Chain, envelope: Curve) -> Curve:
        """The output of ``chain`` given ``envelope``, the input of its
        tail: the walk the bounds-only stages skipped, through the same
        memoized analyses and tidying as every other stage."""
        for stage in chain.stages[chain.tail :]:
            output = self._analyze_dedicated(stage.server, envelope).output
            envelope = self._tidy(output)
        return envelope

    def _advance_dedicated(self, st: "_ConnState") -> bool:
        """Advance ``st`` through its next maximal run of dedicated stages.

        The whole run is memoized as one unit: for a given tuple of server
        behaviours and a given input envelope, the per-stage delay/backlog
        bounds and the final (tidied) output envelope are fully determined,
        so a repeat probe replays them from the segment cache in O(1)
        instead of re-walking every stage.  Stage *names* are taken from
        the chain's run, so connections that share server behaviour still
        report their own hop labels.  In the terminal run the stages from
        the chain's tail on are analyzed for their bounds only, and
        ``st.envelope`` is left at the tail's input.
        """
        run = st.chain.runs.get(st.idx)
        if run is None:
            return False
        key = (run.run_id, st.envelope.fingerprint())
        hit = self._segment_cache.get(key)
        if hit is not None:
            delays, backlogs, env = hit
        else:
            delays = []
            backlogs = []
            env = st.envelope
            stages, tail = st.chain.stages, st.chain.tail
            for k in range(st.idx, run.end):
                result = self._analyze_dedicated(stages[k].server, env, k < tail)
                delays.append(result.delay_bound)
                backlogs.append(result.backlog_bound)
                if k < tail:
                    env = self._tidy(result.output)
            self._segment_cache.put(key, (tuple(delays), tuple(backlogs), env))
        for d in delays:
            st.total += d
        st.hops.extend(zip(run.names, delays))
        st.hop_backlogs.extend(zip(run.names, backlogs))
        st.envelope = env
        st.idx = run.end
        return True

    def _analyze_port(self, port: OutputPortServer, envelopes: Dict[int, Curve]):
        """Analyze a FIFO port once for all its participants.

        Returns ``(delay, backlog, busy_interval, shift)``.  The bounds are
        :meth:`OutputPortServer.analyze_aggregate` of the participants'
        aggregate; every participant shares the delay bound, and its output
        envelope is its input advanced by ``shift`` and capped at link rate
        (:meth:`_port_output`).  ``shift`` is the delay rounded up to
        ``output_delay_quantum``.
        """
        aggregate = sum_curves(envelopes.values())
        delay, backlog, busy = port.analyze_aggregate(aggregate)
        quantum = self.analysis.output_delay_quantum
        if quantum > 0 and delay > 0:
            # The 1e-12 slack errs low: the shift may fall below the exact
            # delay by up to 1e-12 * quantum.
            shift = math.ceil(delay / quantum - 1e-12) * quantum
        else:
            shift = delay
        return delay, backlog, busy, shift

    def _analyze_port_cached(self, port, envelopes: Dict[int, Curve]):
        """Memoized FIFO-port analysis.

        Returns ``(delay, backlog, busy_interval, shift, outputs)``, where
        ``outputs`` maps each key of ``envelopes`` to its member's tidied
        output envelope.  Two calls with the same port and the same
        multiset of participant envelopes produce identical results, and
        identical envelopes get identical outputs — so the cache stores
        outputs keyed by envelope fingerprint.
        """
        fps = {key: env.fingerprint() for key, env in envelopes.items()}
        cache_key = (port.name, tuple(sorted(fps.values())))
        hit = self._stage_cache.get(cache_key)
        if hit is None:
            delay, backlog, busy, shift = self._analyze_port(port, envelopes)
            # Per-member outputs are memoized on (rate, envelope, shift):
            # the quantized shift takes few distinct values across a binary
            # search, and most members' envelopes are unchanged between
            # probes, so only genuinely new (envelope, shift) pairs pay for
            # the shift-and-cap curve algebra.  Outputs are stored already
            # tidied so repeat probes skip the simplify/coarsen pass too.
            rate = port.service_rate
            by_fp: Dict[int, Curve] = {}
            for key, env in envelopes.items():
                fp = fps[key]
                if fp in by_fp:
                    continue
                out_key = ("port-out", rate, fp, shift)
                out = self._stage_cache.get(out_key)
                if out is None:
                    out = self._port_output(env, rate, shift)
                    self._stage_cache.put(out_key, out)
                by_fp[fp] = out
            self._stage_cache.put(cache_key, (delay, backlog, busy, shift, by_fp))
        else:
            delay, backlog, busy, shift, by_fp = hit
        outputs = {key: by_fp[fp] for key, fp in fps.items()}
        return delay, backlog, busy, shift, outputs

    def compute(self, loads: Sequence[ConnectionLoad]) -> Dict[str, DelayReport]:
        """Worst-case end-to-end delay of every connection in ``loads``.

        Raises the analysis errors of the individual servers;
        non-feed-forward shared-port graphs go through the fixed-point
        iteration, which raises :class:`FixedPointDivergenceError` when no
        stable bound exists within the configured iteration cap.
        """
        reports, _ = self.compute_with_resources(loads)
        return reports

    def compute_with_resources(
        self, loads: Sequence[ConnectionLoad]
    ) -> Tuple[Dict[str, DelayReport], ResourceUsage]:
        """Like :meth:`compute`, also returning per-resource usage figures
        (port backlogs/busy intervals) needed for buffer dimensioning."""
        states = [
            _ConnState(
                load=load,
                chain=self._chain_for(load),
                envelope=self.source_envelope(load.spec),
            )
            for load in loads
        ]
        # Which connections traverse each shared port?
        traversers: Dict[str, List[_ConnState]] = {}
        for st in states:
            for name in st.chain.ports:
                traversers.setdefault(name, []).append(st)

        port_backlogs: Dict[str, float] = {}
        port_busy: Dict[str, float] = {}
        port_delays: Dict[str, float] = {}

        # Event-driven worklist: each connection advances through dedicated
        # runs until it lands on a shared port; a port is analyzed the
        # moment its last traverser lands (the feed-forward condition), and
        # its members then advance further.  O(chain hops) total, instead
        # of rescanning every pending connection per round.
        landed: Dict[str, int] = {}
        ready: List[str] = []
        remaining = len(states)

        def _land(st: "_ConnState") -> None:
            nonlocal remaining
            self._advance_dedicated(st)
            stages = st.chain.stages
            if st.idx < len(stages):
                name = stages[st.idx].port.name
                count = landed.get(name, 0) + 1
                landed[name] = count
                if count == len(traversers[name]):
                    ready.append(name)
            else:
                remaining -= 1

        for st in states:
            _land(st)
        if self.analysis.force_fixed_point:
            # Test knob: leave every port to the fixed-point solver so its
            # results can be asserted bit-identical to the worklist's.
            ready.clear()
        while ready:
            port_name = ready.pop()
            group = traversers[port_name]
            stage = group[0].chain.stages[group[0].idx]
            envelopes = {id(g): g.envelope for g in group}
            delay, backlog, busy, _, outputs = self._analyze_port_cached(
                stage.port, envelopes
            )
            port_backlogs[port_name] = backlog
            port_busy[port_name] = busy
            port_delays[port_name] = delay
            for g in group:
                g.total += delay
                g.hops.append((stage.name, delay))
                # Port outputs come back tidied from the cache.
                g.envelope = outputs[id(g)]
                g.idx += 1
            for g in group:
                _land(g)
        if remaining:
            # Not feed-forward (or force_fixed_point): the stuck
            # connections' remaining ports form cyclic mutual dependencies.
            self._solve_fixed_point(states, port_backlogs, port_busy, port_delays)

        reports = {
            st.load.spec.conn_id: DelayReport(
                conn_id=st.load.spec.conn_id,
                total_delay=st.total,
                per_hop=tuple(st.hops),
                per_hop_backlog=tuple(st.hop_backlogs),
                replay=functools.partial(self._replay_output, st.chain, st.envelope),
            )
            for st in states
        }
        usage = ResourceUsage(
            port_backlogs=port_backlogs,
            port_busy_intervals=port_busy,
            port_delays=port_delays,
        )
        return reports, usage

    # ------------------------------------------------------------------
    # Cyclic interference: monotone fixed-point iteration
    # ------------------------------------------------------------------

    def _port_output(self, envelope: Curve, rate: float, shift: float) -> Curve:
        """A member's envelope after a shared port, given the port's shift.

        Worklist-resolved ports (:meth:`_analyze_port_cached`) and the
        fixed-point iteration both build outputs here, so fixed-point
        results on feed-forward topologies are bit-identical to the chain
        analysis.
        """
        return self._tidy(envelope.shift_left(shift).cap(rate))

    def _solve_fixed_point(
        self,
        states: List["_ConnState"],
        port_backlogs: Dict[str, float],
        port_busy: Dict[str, float],
        port_delays: Dict[str, float],
    ) -> None:
        """Resolve the stuck connections' ports by fixed-point iteration.

        Every stuck connection is parked at a shared port the worklist could
        not order; every port at or after a stuck connection's position is
        necessarily unresolved (a port is analyzed only when *all* its
        traversers land, so none of its traversers can have passed it).  The
        iteration assumes a quantized output shift per unresolved port
        (starting at zero, the optimistic floor), re-propagates each stuck
        envelope up to its chain's last shared port under those shifts,
        recomputes every port's delay from the collected entrance
        envelopes, and repeats until the shift vector is exactly the one it
        assumed — self-consistency on the ``output_delay_quantum`` lattice.
        The shift map is monotone non-decreasing (larger shifts produce
        pointwise-larger envelopes, hence larger delays), so the iterates
        climb the lattice and either repeat (converged) or exceed the
        iteration cap (:class:`FixedPointDivergenceError`; no stable bound).
        """
        stuck = [st for st in states if st.idx < len(st.chain.stages)]
        ports: Dict[str, OutputPortServer] = {}
        for st in stuck:
            for stage in st.chain.stages[st.idx :]:
                if isinstance(stage, SharedStage):
                    ports[stage.name] = stage.port
        if not ports:
            raise CyclicDependencyError(
                "stuck connections with no unresolved shared port: "
                f"{sorted(st.load.spec.conn_id for st in stuck)}"
            )
        quantum = self.analysis.output_delay_quantum
        shifts: Dict[str, float] = {name: 0.0 for name in ports}
        results: Dict[str, Tuple[float, float, float]] = {}
        for _ in range(self.analysis.fixed_point_max_iterations):
            inputs: Dict[str, Dict[str, Curve]] = {name: {} for name in ports}
            for st in stuck:
                walker = _ConnState(
                    load=st.load,
                    chain=st.chain,
                    envelope=st.envelope,
                    idx=st.idx,
                )
                stages = st.chain.stages
                # A walker only collects port inputs: it stops at the
                # terminal run, which only the final replay walks.
                while walker.idx < st.chain.terminal:
                    stage = stages[walker.idx]
                    if isinstance(stage, DedicatedStage):
                        self._advance_dedicated(walker)
                    else:
                        inputs[stage.name][st.load.spec.conn_id] = walker.envelope
                        walker.envelope = self._port_output(
                            walker.envelope,
                            stage.port.service_rate,
                            shifts[stage.name],
                        )
                        walker.idx += 1
            new_shifts: Dict[str, float] = {}
            for name in sorted(ports):
                delay, backlog, busy, shift = self._analyze_port(
                    ports[name], inputs[name]
                )
                results[name] = (delay, backlog, busy)
                new_shifts[name] = shift
            converged = _shifts_converged(shifts, new_shifts, quantum)
            shifts = new_shifts
            if converged:
                break
        else:
            raise FixedPointDivergenceError(
                "cyclic-interference fixed point did not converge within "
                f"{self.analysis.fixed_point_max_iterations} iterations over "
                f"ports {sorted(ports)}"
            )
        # Shifts are self-consistent: the last round's inputs were produced
        # under exactly the shifts the ports' analyses returned.  Replay the
        # converged propagation into the real states and the usage maps.
        for st in stuck:
            stages = st.chain.stages
            while st.idx < len(stages):
                stage = stages[st.idx]
                if isinstance(stage, DedicatedStage):
                    self._advance_dedicated(st)
                else:
                    delay, _, _ = results[stage.name]
                    st.total += delay
                    st.hops.append((stage.name, delay))
                    st.envelope = self._port_output(
                        st.envelope, stage.port.service_rate, shifts[stage.name]
                    )
                    st.idx += 1
        for name in ports:
            delay, backlog, busy = results[name]
            port_delays[name] = delay
            port_backlogs[name] = backlog
            port_busy[name] = busy


@dataclasses.dataclass
class _ConnState:
    """A connection part-way through its chain: ``envelope`` enters stage
    ``idx``; once the chain is done, it enters the chain's tail."""

    load: ConnectionLoad
    chain: _Chain
    envelope: Curve
    idx: int = 0
    total: float = 0.0
    hops: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    hop_backlogs: List[Tuple[str, float]] = dataclasses.field(default_factory=list)


def _shifts_converged(
    old: Dict[str, float], new: Dict[str, float], quantum: float
) -> bool:
    """The fixed-point convergence criterion.

    With a positive ``output_delay_quantum`` both vectors live on the same
    discrete lattice, so convergence is *exact repetition* — the map is
    monotone non-decreasing, hence a repeat is the least fixed point above
    the zero start.  With a zero quantum shifts are continuous and exact
    repetition may never occur; a relative-change test with
    :data:`FIXED_POINT_RTOL` stands in.
    """
    if quantum > 0:
        return all(new[name] == old[name] for name in new)
    return all(
        abs(new[name] - old[name]) <= FIXED_POINT_RTOL * max(abs(new[name]), 1e-30)
        for name in new
    )


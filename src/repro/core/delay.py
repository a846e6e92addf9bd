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
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import AnalysisConfig, NetworkConfig
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import PlanCache
from repro.errors import CyclicDependencyError, FixedPointDivergenceError
from repro.fddi.mac_server import FDDIMacServer
from repro.interface_device.cell_frame import CellFrameConversionServer
from repro.interface_device.frame_cell import FrameCellConversionServer
from repro.lru import LRUCache
from repro.network.connection import ConnectionSpec
from repro.network.routing import Route
from repro.network.topology import NetworkTopology
from repro.atm.link import AtmLink
from repro.atm.output_port import OutputPortServer
from repro.servers.base import DedicatedServer
from repro.servers.constant import ConstantDelayServer

#: Entry budget of each of the analyzer's LRU caches.
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
    output: Curve
    #: Worst-case backlog contributed at each *dedicated* hop (bits); shared
    #: ports report an aggregate backlog via ResourceUsage instead.
    per_hop_backlog: Tuple[Tuple[str, float], ...] = ()

    def hop_delay(self, name_fragment: str) -> float:
        """Sum of delays at hops whose name contains ``name_fragment``."""
        return sum(d for n, d in self.per_hop if name_fragment in n)

    def hop_backlog(self, name_fragment: str) -> float:
        """Max backlog among dedicated hops matching ``name_fragment``."""
        matches = [b for n, b in self.per_hop_backlog if name_fragment in n]
        return max(matches, default=0.0)


@dataclasses.dataclass(frozen=True)
class ResourceUsage:
    """Aggregate, per-resource figures from one delay computation."""

    #: Worst-case aggregate backlog at each shared output port (bits).
    port_backlogs: Dict[str, float]
    #: Busy interval of each shared output port (seconds).
    port_busy_intervals: Dict[str, float]
    #: FIFO delay bound at each shared output port (seconds).
    port_delays: Dict[str, float]
    #: Per-port entry envelopes: port name -> {conn_id -> envelope at the
    #: port's entrance}.  Consumed by the concatenation analysis.
    port_inputs: Dict[str, Dict[str, Curve]] = dataclasses.field(
        default_factory=dict
    )


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
        #: Cache of built server chains keyed by everything the chain
        #: depends on (route, grants, regulator, topology version) — the
        #: chain does *not* depend on the traffic descriptor, so this key
        #: is always hashable.  Holding the chain also keeps the segment
        #: run structure (precomputed server keys) from being rebuilt on
        #: every probe.
        self._chain_cache = LRUCache(STAGE_CACHE_SIZE)
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
            "chain": self._chain_cache.stats(),
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
        cfg = self.network_config
        route = load.route
        ring_s = topo.rings[route.source_ring]
        stages: List[Stage] = [
            DedicatedStage(
                f"fddi-mac:{route.source_ring}:{load.spec.conn_id}",
                FDDIMacServer(
                    load.h_source,
                    ring_s.ttrt,
                    ring_s.bandwidth,
                    buffer_bits=cfg.mac_buffer_bits,
                    name=f"mac-src:{load.spec.conn_id}",
                    service_segments=self.analysis.coarsen_segments,
                    plans=self._plans,
                ),
            ),
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
            DedicatedStage(
                f"fddi-mac:{route.dest_ring}:{load.spec.conn_id}",
                FDDIMacServer(
                    load.h_dest,
                    ring_r.ttrt,
                    ring_r.bandwidth,
                    buffer_bits=cfg.mac_buffer_bits,
                    name=f"mac-dst:{load.spec.conn_id}",
                    service_segments=self.analysis.coarsen_segments,
                    plans=self._plans,
                ),
            ),
            DedicatedStage(
                f"delay-line:{route.dest_ring}",
                ConstantDelayServer(ring_r.propagation_delay, name="delay-line-dst"),
            ),
        ]
        return stages

    def _chain_for(self, load: ConnectionLoad) -> Tuple[List[Stage], Dict[int, tuple]]:
        """The (cached) server chain for ``load`` plus its segment runs.

        ``runs`` maps the index of each maximal dedicated run's first stage
        to ``(end_index, seg_keys)``, where ``seg_keys`` is the tuple of the
        run's server cache keys.  Servers are stateless analyzers, so
        reusing the chain across computations is safe; the topology version
        in the key retires chains built against a network that has since
        mutated.
        """
        route = load.route
        reg = load.regulator
        key = (
            load.spec.conn_id,
            route.source_ring,
            route.dest_ring,
            route.source_device,
            route.dest_device,
            tuple(route.switch_path),
            float(load.h_source),
            float(load.h_dest),
            None if reg is None else (reg.sigma, reg.rho, reg.peak),
            self.topology.change_count,
        )
        hit = self._chain_cache.get(key)
        if hit is not None:
            return hit
        stages = self.build_stages(load)
        runs: Dict[int, tuple] = {}
        i, n = 0, len(stages)
        while i < n:
            if isinstance(stages[i], DedicatedStage):
                j = i
                seg_keys = []
                while j < n and isinstance(stages[j], DedicatedStage):
                    seg_keys.append(stages[j].server.cache_key())
                    j += 1
                runs[i] = (j, tuple(seg_keys))
                i = j
            else:
                i += 1
        value = (stages, runs)
        self._chain_cache.put(key, value)
        return value

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
        up (``direction="upper"``) — every downstream delay/backlog bound
        stays a valid upper bound.  The budget is ``max_envelope_segments``
        in exact mode, tightened to ``coarsen_segments`` when the
        accuracy-for-speed knob is set.
        """
        envelope = envelope.simplify()
        cap = self.analysis.max_envelope_segments
        knob = self.analysis.coarsen_segments
        if knob is not None and knob < cap:
            cap = knob
        if len(envelope.xs) > cap:
            envelope = envelope.coarsen(cap, direction="upper")
        return envelope

    def _analyze_dedicated(self, server: DedicatedServer, envelope: Curve):
        key = (server.cache_key(), envelope.fingerprint())
        hit = self._stage_cache.get(key)
        if hit is not None:
            return hit
        result = server.analyze(envelope)
        self._stage_cache.put(key, result)
        return result

    def _advance_dedicated(self, st: "_ConnState") -> bool:
        """Advance ``st`` through its next maximal run of dedicated stages.

        The whole run is memoized as one unit: for a given tuple of server
        behaviours and a given input envelope, the per-stage delay/backlog
        bounds and the final (tidied) output envelope are fully determined,
        so a repeat probe replays them from the segment cache in O(1)
        instead of re-walking every stage.  Stage *names* are taken from
        the live stages, so connections that share server behaviour still
        report their own hop labels.
        """
        stages = st.stages
        start = st.idx
        run = st.runs.get(start)
        if run is None:
            return False
        end, seg_keys = run
        seg = stages[start:end]
        key = (seg_keys, st.envelope.fingerprint())
        hit = self._segment_cache.get(key)
        if hit is not None:
            delays, backlogs, env = hit
        else:
            delays = []
            backlogs = []
            env = st.envelope
            for stage in seg:
                result = self._analyze_dedicated(stage.server, env)
                delays.append(result.delay_bound)
                backlogs.append(result.backlog_bound)
                env = self._tidy(result.output)
            self._segment_cache.put(key, (tuple(delays), tuple(backlogs), env))
        for stage, d, b in zip(seg, delays, backlogs):
            st.total += d
            st.hops.append((stage.name, d))
            st.hop_backlogs.append((stage.name, b))
        st.envelope = env
        st.idx = end
        return True

    def _analyze_port(self, port: OutputPortServer, envelopes: Dict[int, Curve]):
        """Analyze a FIFO port once for all its participants.

        Returns ``(delay, backlog, busy_interval, shift)``.  The bounds are
        :meth:`OutputPortServer.analyze_aggregate` of the participants'
        aggregate; every participant shares the delay bound, and its output
        envelope is its input advanced by ``shift`` and capped at link rate
        (:meth:`_port_output`).  ``shift`` is the delay rounded up to
        ``output_delay_quantum``.

        With ``coarsen_segments`` set, the *aggregate* arrival envelope is
        conservatively rounded up to that many segments before the port
        analysis — the per-connection inputs and outputs are untouched.
        """
        aggregate = sum_curves(envelopes.values())
        knob = self.analysis.coarsen_segments
        if knob is not None and len(aggregate.xs) > knob:
            aggregate = aggregate.coarsen(knob, direction="upper")
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
        states = []
        for load in loads:
            stages, runs = self._chain_for(load)
            states.append(
                _ConnState(
                    load=load,
                    stages=stages,
                    runs=runs,
                    envelope=self.source_envelope(load.spec),
                )
            )
        # Which connections traverse each shared port?
        traversers: Dict[str, List[_ConnState]] = {}
        for st in states:
            for stage in st.stages:
                if isinstance(stage, SharedStage):
                    traversers.setdefault(stage.port.name, []).append(st)

        port_backlogs: Dict[str, float] = {}
        port_busy: Dict[str, float] = {}
        port_delays: Dict[str, float] = {}
        port_inputs: Dict[str, Dict[str, Curve]] = {}

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
            if st.idx < len(st.stages):
                name = st.stages[st.idx].port.name
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
            stage = group[0].stages[group[0].idx]
            envelopes = {id(g): g.envelope for g in group}
            delay, backlog, busy, _, outputs = self._analyze_port_cached(
                stage.port, envelopes
            )
            port_backlogs[port_name] = backlog
            port_busy[port_name] = busy
            port_delays[port_name] = delay
            port_inputs[port_name] = {
                g.load.spec.conn_id: g.envelope for g in group
            }
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
            self._solve_fixed_point(
                states, port_backlogs, port_busy, port_delays, port_inputs
            )

        reports = {
            st.load.spec.conn_id: DelayReport(
                conn_id=st.load.spec.conn_id,
                total_delay=st.total,
                per_hop=tuple(st.hops),
                output=st.envelope,
                per_hop_backlog=tuple(st.hop_backlogs),
            )
            for st in states
        }
        usage = ResourceUsage(
            port_backlogs=port_backlogs,
            port_busy_intervals=port_busy,
            port_delays=port_delays,
            port_inputs=port_inputs,
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
        port_inputs: Dict[str, Dict[str, Curve]],
    ) -> None:
        """Resolve the stuck connections' ports by fixed-point iteration.

        Every stuck connection is parked at a shared port the worklist could
        not order; every port at or after a stuck connection's position is
        necessarily unresolved (a port is analyzed only when *all* its
        traversers land, so none of its traversers can have passed it).  The
        iteration assumes a quantized output shift per unresolved port
        (starting at zero, the optimistic floor), re-propagates each stuck
        envelope through its remaining chain under those shifts, recomputes
        every port's delay from the collected entrance envelopes, and
        repeats until the shift vector is exactly the one it assumed —
        self-consistency on the ``output_delay_quantum`` lattice.  The
        shift map is monotone non-decreasing (larger shifts produce
        pointwise-larger envelopes, hence larger delays), so the iterates
        climb the lattice and either repeat (converged) or exceed the
        iteration cap (:class:`FixedPointDivergenceError`; no stable bound).
        """
        stuck = [st for st in states if st.idx < len(st.stages)]
        ports: Dict[str, OutputPortServer] = {}
        for st in stuck:
            for stage in st.stages[st.idx :]:
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
        inputs: Dict[str, Dict[str, Curve]] = {}
        for _ in range(self.analysis.fixed_point_max_iterations):
            inputs = {name: {} for name in ports}
            for st in stuck:
                walker = _ConnState(
                    load=st.load,
                    stages=st.stages,
                    runs=st.runs,
                    envelope=st.envelope,
                    idx=st.idx,
                )
                while walker.idx < len(walker.stages):
                    stage = walker.stages[walker.idx]
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
            while st.idx < len(st.stages):
                stage = st.stages[st.idx]
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
            port_inputs[name] = dict(inputs[name])


@dataclasses.dataclass
class _ConnState:
    load: ConnectionLoad
    stages: List[Stage]
    runs: Dict[int, tuple]
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


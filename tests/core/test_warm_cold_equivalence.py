"""A warm delay engine answers exactly as a cold one.

Every cache of :class:`~repro.core.delay.DelayAnalyzer` and
:class:`~repro.core.incremental.IncrementalDelayEngine` (chain skeletons,
per-load chain and key memos, interned run and key ids, segment, stage
and envelope caches) must be invisible in the output.  Each test drives
one warm engine through a seeded sequence and checks every step against a
fresh analyzer, bit for bit: every ``DelayReport`` field, output arrays
included, and the per-port usage.

The sequence probes two candidates at changing ``(h_s, h_r)``.  Some of
the light candidate's allocations lie below the one at which
``frame_bits_for`` saturates at ``max_frame_bits``, so its frame-cell and
cell-frame servers change with the allocation; the bulk candidate's
allocations all saturate it, so only its MAC stages change.  The sequence
reuses ``ConnectionLoad`` objects across steps, and it fails and restores
a backbone link between steps.
"""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.config import build_network
from repro.core.delay import (
    STAGE_CACHE_SIZE,
    ConnectionLoad,
    DelayAnalyzer,
    DelayReport,
    route_port_names,
)
from repro.core.incremental import IncrementalDelayEngine
from repro.envelopes.curve import Curve
from repro.errors import BufferOverflowError, UnstableSystemError
from repro.lru import IdMemo, Interner
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic, PeriodicTraffic

LIGHT = PeriodicTraffic(c=20_000.0, p=0.020)
#: A burst above one saturated frame: its MAC bounds move with ``H`` even
#: where the frame size does not.
BULK = PeriodicTraffic(c=150_000.0, p=0.020)
HEAVY = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)

#: Standing connections; none crosses the s1-s2 link the sequence fails.
STANDING = (
    ("a", "host1-1", "host3-1", HEAVY, 0.002, 0.002),
    ("b", "host3-2", "host1-2", LIGHT, 0.0003, 0.0002),
    ("c", "host2-1", "host3-3", LIGHT, 0.001, 0.001),
    ("d", "host1-3", "host1-4", LIGHT, 0.0005, 0.0),
)

#: Allocations of the light candidate: the first four give frames below
#: the maximum (``frame_bits_for(h) < max_frame_bits``), the last two
#: saturate it.
ALLOCATIONS = (0.00015, 0.0002, 0.00025, 0.0003, 0.001, 0.002)
#: Allocations of the bulk candidate, all saturated: its chains share one
#: skeleton and differ only in their MAC stages.
BULK_ALLOCATIONS = (0.0008, 0.001, 0.0015, 0.002)


def _spec(conn_id, src, dst, traffic):
    return ConnectionSpec(conn_id, src, dst, traffic, 0.5)


def _load(topo, conn_id, src, dst, traffic, h_s, h_r):
    spec = _spec(conn_id, src, dst, traffic)
    return ConnectionLoad(spec, compute_route(topo, src, dst), h_s, h_r)


def _bits(value):
    """A canonical form of ``value`` in which equal means bit-identical."""
    if isinstance(value, Curve):
        return ("curve", value.xs.tobytes(), value.ys.tobytes(), value.slopes.tobytes())
    if isinstance(value, (float, np.floating)):
        return ("float", type(value).__name__, float(value).hex())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):  # the engine lists reused reports first
        return tuple((k, _bits(v)) for k, v in sorted(value.items()))
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value) if f.compare]
        if isinstance(value, DelayReport):
            names.append("output")  # lazy: the read replays the chain's tail
        return tuple((name, _bits(getattr(value, name))) for name in names)
    assert isinstance(value, (str, int)), type(value)
    return value


def _outcome(compute, loads):
    try:
        return _bits(compute(loads))
    except (UnstableSystemError, BufferOverflowError) as exc:
        return (type(exc).__name__, str(exc))


def _steps(seed, n_steps=14):
    """Yield ``(topology, loads)``: a seeded sequence of load sets on one
    topology, which the generator fails and restores between steps."""
    rng = random.Random(seed)
    topo = build_network()
    standing = [_load(topo, *row) for row in STANDING]
    candidates = {}
    # Two small allocations in a row first: the second probe meets a
    # skeleton built for another frame size.  Then two saturated ones,
    # which share a skeleton.
    fixed = [(0.0002, 0.0002), (0.0003, 0.0003), (0.001, 0.001), (0.002, 0.002)]
    for step in range(n_steps):
        if step >= len(fixed) and rng.random() < 0.3:
            if ("s1", "s2") in topo._failed_links:
                topo.restore_link("s1", "s2")
            else:
                topo.fail_link("s1", "s2")
            candidates.clear()  # their routes may now cross a failed link
        h_s, h_r = fixed[step] if step < len(fixed) else (
            rng.choice(ALLOCATIONS),
            rng.choice(ALLOCATIONS),
        )
        probes = [
            ("probe", "host1-2", "host2-2", LIGHT, h_s, h_r),
            (
                "bulk",
                "host2-3",
                "host1-3",
                BULK,
                rng.choice(BULK_ALLOCATIONS),
                rng.choice(BULK_ALLOCATIONS),
            ),
        ]
        loads = [ld for ld in standing if rng.random() < 0.8]
        for row in probes:
            # Re-probing an allocation reuses its ConnectionLoad object.
            if row not in candidates:
                candidates[row] = _load(topo, *row)
            loads.append(candidates[row])
        yield topo, loads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_analyzer_matches_cold(seed):
    warm = None
    for topo, loads in _steps(seed):
        warm = warm or DelayAnalyzer(topo)
        cold = DelayAnalyzer(topo)
        assert _outcome(warm.compute_with_resources, loads) == _outcome(
            cold.compute_with_resources, loads
        )
    assert warm.cache_stats()["chain"]["hits"] > 0


@pytest.mark.parametrize("seed", [3, 4])
def test_warm_incremental_engine_matches_cold(seed):
    engine = None
    for topo, loads in _steps(seed):
        engine = engine or IncrementalDelayEngine(DelayAnalyzer(topo))
        cold = DelayAnalyzer(topo)
        assert _outcome(engine.compute, loads) == _outcome(cold.compute, loads)
    assert engine.stats()["loads_reused"] > 0


def test_small_allocations_change_the_frame_servers():
    """The sequence's premise: below saturation the allocation reaches
    the frame-cell and cell-frame servers, not only the MAC servers."""
    topo = build_network()
    analyzer = DelayAnalyzer(topo)
    max_bits = analyzer.network_config.max_frame_bits
    assert analyzer.frame_bits_for(0.0003) < max_bits
    assert analyzer.frame_bits_for(0.001) == max_bits
    envelope = LIGHT.envelope(analyzer.analysis.envelope_horizon)
    for name in ("id1:frame-cell", "id2:cell-frame"):
        outputs = []
        for h in (0.0002, 0.0003):
            ld = _load(topo, "probe", "host1-2", "host2-2", LIGHT, h, h)
            (stage,) = [s for s in analyzer.build_stages(ld) if s.name == name]
            outputs.append(stage.server.analyze(envelope).output.fingerprint())
        assert outputs[0] != outputs[1], name


def test_twenty_thousand_candidates_stay_within_budget():
    """Every memo and intern table of the analyzer and the engine stays
    bounded however many distinct candidate allocations are probed, and
    the standing loads keep their memoized chains and keys throughout."""
    topo = build_network()
    engine = IncrementalDelayEngine(DelayAnalyzer(topo))
    analyzer = engine.analyzer
    standing = [_load(topo, *row) for row in STANDING]
    chains = [analyzer._chain_for(ld) for ld in standing]
    keys = [engine._key_and_ports(ld) for ld in standing]
    route = compute_route(topo, "host1-2", "host2-2")
    spec = _spec("probe", "host1-2", "host2-2", LIGHT)
    for i in range(20_000):
        h = 0.001 + i * 1e-8
        cand = ConnectionLoad(spec, route, h, h)
        analyzer._chain_for(cand)
        engine._key_and_ports(cand)
    for memo in (analyzer._chain_memo, engine._load_memo):
        assert memo._limit == memo.floor
        assert len(memo) <= memo._limit
    for table in (analyzer._run_ids, engine._key_ids, engine._traffic_ids):
        assert len(table) <= STAGE_CACHE_SIZE
    assert len(analyzer._skeletons) <= STAGE_CACHE_SIZE
    assert [analyzer._chain_for(ld) for ld in standing] == chains
    assert all(
        analyzer._chain_for(ld) is chain for ld, chain in zip(standing, chains)
    )
    assert [engine._key_and_ports(ld) for ld in standing] == keys


class _Obj:
    pass


class TestIdMemo:
    def test_dead_objects_never_answer(self):
        memo = IdMemo(floor=4)
        obj = _Obj()
        memo.put(obj, "v")
        assert memo.get(obj) == "v"
        del obj
        # Whatever object now has the old id, the entry is not its.
        assert memo.get(_Obj()) is None

    def test_unreferenceable_objects_are_not_memoized(self):
        memo = IdMemo()
        memo.put((1, 2), "v")
        assert len(memo) == 0

    def test_prune_threshold_is_amortized(self):
        """With more live objects than the floor, the table prunes only
        after doubling instead of rebuilding on every insertion."""
        memo = IdMemo(floor=8)
        live = [_Obj() for _ in range(20)]
        for obj in live:
            memo.put(obj, id(obj))
        limit = memo._limit
        assert len(live) < limit <= 2 * len(live)
        # Objects alive together have distinct ids, so each adds an entry.
        dead = [_Obj() for _ in range(limit - len(memo))]
        extra = _Obj()
        for obj in dead:
            memo.put(obj, None)
        assert len(memo) == limit == memo._limit  # full, not pruned
        del dead, obj
        memo.put(extra, "x")
        live.append(extra)
        assert len(memo) == len(live)
        assert memo._limit == 2 * len(live)
        assert all(memo.get(obj) == id(obj) for obj in live[:-1])
        assert memo.get(extra) == "x"


class TestInterner:
    def test_equal_keys_share_an_id(self):
        intern = Interner(4)
        assert intern(("a", 1.0)) == intern(("a", 1.0))
        assert intern(("a", 1.0)) != intern(("a", 2.0))

    def test_ids_are_never_reused(self):
        intern = Interner(2)
        first = intern("x")
        intern("y")
        intern("z")  # evicts "x"
        assert len(intern) == 2
        seen = {first, intern("y"), intern("z")}
        again = intern("x")
        assert again not in seen


def test_a_removal_leaves_the_cached_partition_unchanged():
    """Removing a load whose ports no remaining load crosses, then
    reusing the cached partition, must neither write into the cached
    entry nor dirty the component that stayed: the reports equal a full
    computation, and the untouched load is reused every time."""
    topo = build_network()
    engine = IncrementalDelayEngine(DelayAnalyzer(topo))
    kept = _load(topo, "kept", "host1-1", "host2-1", LIGHT, 0.001, 0.001)
    removed = _load(topo, "removed", "host3-1", "host1-1", LIGHT, 0.001, 0.001)
    ports = route_port_names(topo, kept.route)
    assert not set(ports) & set(route_port_names(topo, removed.route))

    assert _outcome(engine.compute, [kept]) == _outcome(
        DelayAnalyzer(topo).compute, [kept]
    )
    cached = engine._partition_cache.get((ports,))
    snapshot = copy.deepcopy(cached)
    for loads in ([kept, removed], [kept], [kept, removed], [kept]):
        assert _outcome(engine.compute, loads) == _outcome(
            DelayAnalyzer(topo).compute, loads
        )
        assert engine._partition_cache.get((ports,)) == snapshot
    assert engine._partition_cache.get((ports,)) is cached
    assert engine.stats()["loads_reused"] == 4

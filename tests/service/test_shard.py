"""Sharding by interference partition must never change any decision."""

import asyncio

import pytest

from repro.config import CACConfig, NetworkConfig, ServiceConfig, build_network
from repro.core import AdmissionController
from repro.errors import ConfigurationError
from repro.network.connection import ConnectionSpec
from repro.service.bench import TickClock
from repro.service.server import ADMITTED, AdmissionService
from repro.service.shard import ShardedAdmissionState, shard_footprint
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=60_000.0, p1=0.015, c2=30_000.0, p2=0.005)
NET = NetworkConfig(n_rings=4, hosts_per_ring=4)


def _spec(cid, src, dst, deadline=0.09):
    return ConnectionSpec(cid, src, dst, TRAFFIC, deadline)


def _sharded():
    return ShardedAdmissionState(
        build_network(NET), network_config=NET, cac_config=CACConfig()
    )


def _admit(state, spec):
    """The service's admit path minus the queue: resolve, decide, commit."""
    shard, footprint = state.resolve(state.route_of(spec))
    result = shard.controller.request(spec)
    if result.admitted:
        state.commit_admit(shard, footprint, result)
    return result


# Disjoint ring pairs: (1,2) and (3,4) share no port and no ring.
GROUP_A = [_spec(f"a{j}", f"host1-{j + 1}", f"host2-{j + 1}") for j in range(3)]
GROUP_B = [_spec(f"b{j}", f"host3-{j + 1}", f"host4-{j + 1}") for j in range(3)]
BRIDGE = _spec("x", "host1-1", "host3-1")


class TestPartition:
    def test_disjoint_groups_get_separate_shards(self):
        state = _sharded()
        for spec in GROUP_A + GROUP_B:
            assert _admit(state, spec).admitted
        stats = state.stats()
        assert stats["n_shards"] == 2
        assert stats["n_active"] == 6
        assert stats["n_merges"] == 0
        assert state.shard_of("a0") is not state.shard_of("b0")

    def test_footprint_includes_ring_tokens(self):
        state = _sharded()
        route = state.route_of(GROUP_A[0])
        footprint = shard_footprint(state.topology, route)
        assert "ring:ring1" in footprint
        assert "ring:ring2" in footprint

    def test_bridge_connection_merges_shards(self):
        state = _sharded()
        for spec in GROUP_A + GROUP_B:
            _admit(state, spec)
        assert _admit(state, BRIDGE).admitted
        stats = state.stats()
        assert stats["n_shards"] == 1
        assert stats["n_merges"] == 1
        assert state.shard_of("a0") is state.shard_of("b0")

    def test_release_gc_frees_empty_shard(self):
        state = _sharded()
        _admit(state, GROUP_A[0])
        _admit(state, GROUP_B[0])
        assert state.stats()["n_shards"] == 2
        state.release("b0")
        assert state.stats()["n_shards"] == 1
        with pytest.raises(ConfigurationError):
            state.release("b0")


class TestDecisionEquivalence:
    def test_sharded_decisions_match_single_controller(self):
        """Same admit sequence through the service, same verdicts,
        bit-identical bounds."""
        reference = AdmissionController(
            build_network(NET), cac_config=CACConfig()
        )
        specs = GROUP_A + GROUP_B + [BRIDGE, _spec("a9", "host1-4", "host2-1")]
        service = AdmissionService(
            build_network(NET),
            network_config=NET,
            cac_config=CACConfig(),
            service_config=ServiceConfig(default_timeout=1e6, snapshot_every=0),
            clock=TickClock(),
        )

        async def scenario():
            async with service:
                return [await service.submit_admit(spec) for spec in specs]

        responses = asyncio.run(scenario())
        for spec, got in zip(specs, responses):
            ref = reference.request(spec)
            assert (got.verdict == ADMITTED) == ref.admitted, spec.conn_id
            if ref.admitted:
                mine = service.state.active[spec.conn_id]
                assert repr(got.delay_bound) == repr(
                    ref.record.delay_bound
                ), spec.conn_id
                assert repr(mine.h_source) == repr(ref.record.h_source)
                assert repr(mine.h_dest) == repr(ref.record.h_dest)
        # Ledgers saw identical insertions on both sides of the fence.
        ref_rings = reference.topology.rings
        for rid, ring in service.state.topology.rings.items():
            assert repr(ring.allocated_sync_time) == repr(
                ref_rings[rid].allocated_sync_time
            )

    def test_audit_clean_after_churn(self):
        state = _sharded()
        for spec in GROUP_A + GROUP_B:
            _admit(state, spec)
        state.release("a1")
        _admit(state, _spec("a1b", "host1-2", "host2-2"))
        leaks = state.audit_allocations()
        assert max(abs(d) for d in leaks.values()) < 1e-12

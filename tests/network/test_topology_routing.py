"""Tests for topology construction, routing and connection objects."""

import math

import pytest

from repro.atm import AtmSwitch
from repro.config import NetworkConfig, build_network
from repro.errors import RoutingError, TopologyError
from repro.fddi import FDDIRing
from repro.interface_device import InterfaceDevice
from repro.network import ConnectionSpec, NetworkTopology, compute_route
from repro.traffic import PeriodicTraffic
from repro.units import MBIT


class TestBuildNetwork:
    def test_paper_topology_counts(self):
        topo = build_network()
        assert len(topo.rings) == 3
        assert len(topo.hosts) == 12
        assert len(topo.switches) == 3
        assert len(topo.devices) == 3

    def test_custom_sizes(self):
        topo = build_network(NetworkConfig(n_rings=4, hosts_per_ring=2))
        assert len(topo.rings) == 4
        assert len(topo.hosts) == 8

    def test_every_ring_bridged(self):
        topo = build_network()
        for ring_id in topo.rings:
            assert topo.device_of_ring(ring_id).ring_id == ring_id

    def test_backbone_fully_connected(self):
        topo = build_network()
        for a in topo.switches:
            for b in topo.switches:
                if a != b:
                    assert topo.backbone_path(a, b) == [a, b]

    def test_hosts_on_ring(self):
        topo = build_network()
        hosts = topo.hosts_on_ring("ring1")
        assert len(hosts) == 4
        assert all(h.ring_id == "ring1" for h in hosts)


class TestTopologyValidation:
    def test_duplicate_ring_rejected(self):
        topo = NetworkTopology()
        topo.add_ring(FDDIRing("r1", ttrt=0.008))
        with pytest.raises(TopologyError):
            topo.add_ring(FDDIRing("r1", ttrt=0.008))

    def test_host_requires_ring(self):
        topo = NetworkTopology()
        with pytest.raises(TopologyError):
            topo.add_host("h1", "ghost-ring")

    def test_one_device_per_ring(self):
        topo = NetworkTopology()
        topo.add_ring(FDDIRing("r1", ttrt=0.008))
        topo.add_switch(AtmSwitch("s1"))
        topo.add_device(InterfaceDevice("id1", "r1"), "s1", uplink_rate=155 * MBIT)
        with pytest.raises(TopologyError):
            topo.add_device(InterfaceDevice("id2", "r1"), "s1", uplink_rate=155 * MBIT)

    def test_duplicate_switch_link_rejected(self):
        topo = NetworkTopology()
        topo.add_switch(AtmSwitch("s1"))
        topo.add_switch(AtmSwitch("s2"))
        topo.connect_switches("s1", "s2", rate=155 * MBIT)
        with pytest.raises(TopologyError):
            topo.connect_switches("s1", "s2", rate=155 * MBIT)

    def test_validate_catches_unbridged_ring(self):
        topo = NetworkTopology()
        topo.add_ring(FDDIRing("r1", ttrt=0.008))
        with pytest.raises(TopologyError):
            topo.validate()

    def test_unknown_lookups_raise(self):
        topo = build_network()
        with pytest.raises(TopologyError):
            topo.switch_link("s1", "ghost")
        with pytest.raises(TopologyError):
            topo.downlink("s1", "ghost")


class TestRouting:
    def test_cross_ring_route(self):
        topo = build_network()
        route = compute_route(topo, "host1-1", "host2-3")
        assert route.crosses_backbone
        assert route.source_device == "id1"
        assert route.dest_device == "id2"
        assert route.switch_path == ["s1", "s2"]

    def test_local_route(self):
        topo = build_network()
        route = compute_route(topo, "host1-1", "host1-2")
        assert not route.crosses_backbone
        assert route.switch_path == []

    def test_unknown_host_rejected(self):
        topo = build_network()
        with pytest.raises(RoutingError):
            compute_route(topo, "ghost", "host1-1")
        with pytest.raises(RoutingError):
            compute_route(topo, "host1-1", "ghost")

    def test_same_host_rejected(self):
        topo = build_network()
        with pytest.raises(RoutingError):
            compute_route(topo, "host1-1", "host1-1")

    def test_route_str_mentions_path(self):
        topo = build_network()
        route = compute_route(topo, "host1-1", "host2-1")
        assert "s1" in str(route) and "s2" in str(route)


class TestConnectionSpec:
    def test_valid_spec(self):
        spec = ConnectionSpec(
            "c", "a", "b", PeriodicTraffic(c=1000.0, p=0.01), 0.1
        )
        assert spec.deadline == 0.1

    def test_nonpositive_deadline_rejected(self):
        for deadline in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ConnectionSpec("c", "a", "b", PeriodicTraffic(c=1.0, p=1.0), deadline)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            ConnectionSpec("c", "a", "a", PeriodicTraffic(c=1.0, p=1.0), 0.1)

"""Tests for ResourceUsage (port-level figures from the delay engine)."""

import pytest

from repro.config import build_network
from repro.core.delay import ConnectionLoad, DelayAnalyzer
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)


def loads_for(topo, pairs):
    out = []
    for i, (src, dst) in enumerate(pairs):
        spec = ConnectionSpec(f"c{i}", src, dst, TRAFFIC, 0.2)
        out.append(ConnectionLoad(spec, compute_route(topo, src, dst), 0.0015, 0.0015))
    return out


class TestResourceUsage:
    def test_all_traversed_ports_reported(self):
        topo = build_network()
        analyzer = DelayAnalyzer(topo)
        loads = loads_for(topo, [("host1-1", "host2-1")])
        _, usage = analyzer.compute_with_resources(loads)
        assert set(usage.port_delays) == {"id1:uplink", "s1:s1->s2", "s2:s2->id2"}
        assert set(usage.port_backlogs) == set(usage.port_delays)
        assert set(usage.port_busy_intervals) == set(usage.port_delays)

    def test_port_delay_consistent_with_per_hop(self):
        topo = build_network()
        analyzer = DelayAnalyzer(topo)
        loads = loads_for(topo, [("host1-1", "host2-1")])
        reports, usage = analyzer.compute_with_resources(loads)
        hop = dict(reports["c0"].per_hop)
        for name, delay in usage.port_delays.items():
            assert hop[name] == pytest.approx(delay)

    def test_empty_loads(self):
        topo = build_network()
        reports, usage = DelayAnalyzer(topo).compute_with_resources([])
        assert reports == {}
        assert usage.port_delays == {}

    def test_backlogs_positive_when_loaded(self):
        topo = build_network()
        analyzer = DelayAnalyzer(topo)
        loads = loads_for(topo, [("host1-1", "host2-1")])
        _, usage = analyzer.compute_with_resources(loads)
        assert all(b > 0 for b in usage.port_backlogs.values())

"""Tests for the concatenation (pay-bursts-only-once) analysis."""

import math

import pytest

from repro.config import build_network
from repro.core.concatenation import (
    ConcatenationAnalyzer,
    ConcatenationReport,
    RateLatency,
)
from repro.core.delay import ConnectionLoad
from repro.errors import UnstableSystemError
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)
#: Four cross-ring connections sharing the backbone.
FOUR_PAIRS = [
    ("host1-1", "host2-1"),
    ("host1-2", "host3-1"),
    ("host2-2", "host3-2"),
    ("host3-3", "host1-3"),
]


def make_loads(topo, pairs, h=0.0015):
    loads = []
    for i, (src, dst) in enumerate(pairs):
        spec = ConnectionSpec(f"c{i}", src, dst, TRAFFIC, 0.2)
        loads.append(ConnectionLoad(spec, compute_route(topo, src, dst), h, h))
    return loads


class TestRateLatency:
    def test_convolution_closed_form(self):
        a = RateLatency(rate=10.0, latency=1.0)
        b = RateLatency(rate=5.0, latency=2.0)
        c = a.convolve(b)
        assert c.rate == 5.0
        assert c.latency == 3.0

    def test_infinite_rate_is_pure_delay(self):
        a = RateLatency(rate=math.inf, latency=0.5)
        b = RateLatency(rate=7.0, latency=1.0)
        c = a.convolve(b)
        assert c.rate == 7.0
        assert c.latency == 1.5

    def test_to_curve(self):
        curve = RateLatency(rate=4.0, latency=2.0).to_curve()
        assert curve(2.0) == 0.0
        assert curve(3.0) == pytest.approx(4.0)


class TestConcatenatedBound:
    def test_both_bounds_finite_and_positive(self):
        topo = build_network()
        analyzer = ConcatenationAnalyzer(topo)
        loads = make_loads(topo, [("host1-1", "host2-1")])
        report = analyzer.analyze(loads)["c0"]
        assert 0 < report.concatenated_bound < math.inf
        assert 0 < report.additive_bound < math.inf

    def test_concatenated_bound_valid_vs_simulation(self):
        # The concatenated number must also upper-bound reality.
        from repro.sim.packet_sim import PacketLevelSimulator

        for pairs in (FOUR_PAIRS[:2], FOUR_PAIRS):
            topo = build_network()
            loads = make_loads(topo, pairs)
            reports = ConcatenationAnalyzer(topo).analyze(loads)
            observed = PacketLevelSimulator(
                topo, loads, adversarial_phase=True
            ).run(duration=0.3)
            for cid, rep in reports.items():
                assert observed.max_delay[cid] <= rep.concatenated_bound + 1e-9
                assert observed.max_delay[cid] <= rep.additive_bound + 1e-9

    def test_end_to_end_rate_is_bottleneck(self):
        topo = build_network()
        loads = make_loads(topo, [("host1-1", "host2-1")], h=0.001)
        report = ConcatenationAnalyzer(topo).analyze(loads)["c0"]
        # The MACs (12.5 Mbps at H=1 ms) are the bottleneck, not the
        # 140 Mbps payload links.
        mac_rate = 0.001 * 100e6 / 0.008
        assert report.end_to_end_rate == pytest.approx(mac_rate)

    def test_latency_accumulates_constants(self):
        topo = build_network()
        loads = make_loads(topo, [("host1-1", "host2-1")])
        report = ConcatenationAnalyzer(topo).analyze(loads)["c0"]
        # At least the two token-wait terms (2 * 2 * TTRT = 32 ms).
        assert report.end_to_end_latency >= 0.032

    def test_improvement_ratio_defined(self):
        topo = build_network()
        for pairs in ([("host1-1", "host2-1")], FOUR_PAIRS):
            reports = ConcatenationAnalyzer(topo).analyze(make_loads(topo, pairs))
            for report in reports.values():
                # Neither technique is wildly looser on these route shapes.
                assert 0.2 < report.improvement < 5.0

    def test_cross_traffic_reduces_leftover(self):
        topo = build_network()
        alone = ConcatenationAnalyzer(topo).analyze(
            make_loads(topo, [("host1-1", "host2-1")])
        )["c0"]
        topo2 = build_network()
        crowded = ConcatenationAnalyzer(topo2).analyze(
            make_loads(
                topo2, [("host1-1", "host2-1"), ("host1-2", "host2-2")]
            )
        )["c0"]
        assert crowded.concatenated_bound >= alone.concatenated_bound - 1e-9

    def test_overload_raises(self):
        topo = build_network()
        analyzer = ConcatenationAnalyzer(topo)
        # H too small for the traffic: unstable.
        loads = make_loads(topo, [("host1-1", "host2-1")], h=0.0001)
        with pytest.raises(UnstableSystemError):
            analyzer.analyze(loads)

    def test_local_route_supported(self):
        topo = build_network()
        spec = ConnectionSpec("loc", "host1-1", "host1-2", TRAFFIC, 0.2)
        load = ConnectionLoad(
            spec, compute_route(topo, "host1-1", "host1-2"), 0.0015, 0.0
        )
        report = ConcatenationAnalyzer(topo).analyze([load])["loc"]
        assert math.isfinite(report.concatenated_bound)

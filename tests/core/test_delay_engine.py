"""Tests for the decomposition delay engine (Eq. 7)."""

import math

import pytest

from repro.config import AnalysisConfig, NetworkConfig, build_network
from repro.core.delay import ConnectionLoad, DelayAnalyzer
from repro.errors import UnstableSystemError
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic, PeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)


@pytest.fixture()
def topo():
    return build_network()


@pytest.fixture()
def analyzer(topo):
    return DelayAnalyzer(topo)


def load(topo, conn_id, src, dst, h_s=0.002, h_r=0.002, deadline=0.2, traffic=TRAFFIC):
    spec = ConnectionSpec(conn_id, src, dst, traffic, deadline)
    return ConnectionLoad(spec, compute_route(topo, src, dst), h_s, h_r)


class TestStageConstruction:
    def test_backbone_route_stage_sequence(self, topo, analyzer):
        ld = load(topo, "c1", "host1-1", "host2-1")
        stages = analyzer.build_stages(ld)
        names = [s.name for s in stages]
        # The decomposition of Section 4: MAC, delay line, ID_S stages,
        # uplink port, backbone, ID_R stages, destination MAC, delay line.
        assert names[0].startswith("fddi-mac:ring1")
        assert any("frame-cell" in n for n in names)
        assert any("uplink" in n for n in names)
        assert any("cell-frame" in n for n in names)
        assert names[-1] == "delay-line:ring2"

    def test_local_route_is_two_stages(self, topo, analyzer):
        ld = load(topo, "c1", "host1-1", "host1-2", h_r=0.0)
        stages = analyzer.build_stages(ld)
        assert len(stages) == 2

    def test_frame_bits_capped_by_max_frame(self, analyzer):
        big_h = 0.005  # 500 kbit/rotation >> max frame
        assert analyzer.frame_bits_for(big_h) == analyzer.network_config.max_frame_bits

    def test_frame_bits_proportional_to_h(self, analyzer):
        cfg = analyzer.network_config
        small_h = 0.0002
        assert analyzer.frame_bits_for(small_h) == pytest.approx(
            small_h * cfg.fddi_bandwidth
        )


class TestSingleConnection:
    def test_end_to_end_is_sum_of_hops(self, topo, analyzer):
        ld = load(topo, "c1", "host1-1", "host2-1")
        report = analyzer.compute([ld])["c1"]
        assert report.total_delay == pytest.approx(
            sum(d for _, d in report.per_hop)
        )

    def test_mac_delays_dominate(self, topo, analyzer):
        ld = load(topo, "c1", "host1-1", "host2-1")
        report = analyzer.compute([ld])["c1"]
        mac = report.hop_delay("fddi-mac")
        assert mac > 0.5 * report.total_delay

    def test_local_route_cheaper_than_backbone(self, topo, analyzer):
        local = load(topo, "c1", "host1-1", "host1-2", h_r=0.0)
        remote = load(topo, "c2", "host1-1", "host2-1")
        d_local = analyzer.compute([local])["c1"].total_delay
        d_remote = analyzer.compute([remote])["c2"].total_delay
        assert d_local < d_remote

    def test_more_bandwidth_never_hurts(self, topo, analyzer):
        # 0.0008 s/rotation = 10 Mbps guaranteed (traffic is 8 Mbps).
        slow = load(topo, "c1", "host1-1", "host2-1", h_s=0.0008, h_r=0.0008)
        fast = load(topo, "c1", "host1-1", "host2-1", h_s=0.004, h_r=0.004)
        d_slow = analyzer.compute([slow])["c1"].total_delay
        d_fast = analyzer.compute([fast])["c1"].total_delay
        assert d_fast <= d_slow + 1e-9

    def test_unstable_allocation_raises(self, topo, analyzer):
        # 0.1 ms/rotation = 1.25 Mbps << 8 Mbps of traffic.
        ld = load(topo, "c1", "host1-1", "host2-1", h_s=0.0001, h_r=0.002)
        with pytest.raises(UnstableSystemError):
            analyzer.compute([ld])


class TestMultipleConnections:
    def test_disjoint_connections_independent(self, topo, analyzer):
        # ring1->ring2 and ring2->ring3 share no output port in the triangle.
        a = load(topo, "a", "host1-1", "host2-1")
        b = load(topo, "b", "host2-2", "host3-1")
        together = analyzer.compute([a, b])
        alone_a = analyzer.compute([a])["a"].total_delay
        assert together["a"].total_delay == pytest.approx(alone_a, rel=1e-9)

    def test_shared_uplink_increases_delay(self, topo, analyzer):
        # Two connections from ring1 share id1's uplink port.
        a = load(topo, "a", "host1-1", "host2-1")
        b = load(topo, "b", "host1-2", "host3-1")
        together = analyzer.compute([a, b])
        alone = analyzer.compute([a])
        assert together["a"].total_delay >= alone["a"].total_delay - 1e-12
        assert together["a"].hop_delay("uplink") >= alone["a"].hop_delay("uplink")

    def test_all_twelve_hosts_active(self, topo, analyzer):
        loads = []
        hosts = [f"host{i}-{j}" for i in range(1, 4) for j in range(1, 5)]
        for k, src in enumerate(hosts):
            ring = int(src[4])
            dst_ring = ring % 3 + 1
            dst = f"host{dst_ring}-{(k % 4) + 1}"
            loads.append(load(topo, f"c{k}", src, dst, h_s=0.0008, h_r=0.0008))
        reports = analyzer.compute(loads)
        assert len(reports) == 12
        assert all(math.isfinite(r.total_delay) for r in reports.values())

    def test_deterministic_across_orderings(self, topo, analyzer):
        a = load(topo, "a", "host1-1", "host2-1")
        b = load(topo, "b", "host1-2", "host2-2")
        d1 = analyzer.compute([a, b])
        d2 = analyzer.compute([b, a])
        assert d1["a"].total_delay == pytest.approx(d2["a"].total_delay, rel=1e-12)
        assert d1["b"].total_delay == pytest.approx(d2["b"].total_delay, rel=1e-12)


class TestCaching:
    def test_cache_hits_do_not_change_results(self, topo):
        fresh = DelayAnalyzer(topo)
        ld = load(topo, "c1", "host1-1", "host2-1")
        first = fresh.compute([ld])["c1"].total_delay
        second = fresh.compute([ld])["c1"].total_delay
        assert first == second

    def test_different_h_different_result(self, topo, analyzer):
        lo = load(topo, "c1", "host1-1", "host2-1", h_s=0.0008, h_r=0.002)
        hi = load(topo, "c1", "host1-1", "host2-1", h_s=0.003, h_r=0.002)
        d_lo = analyzer.compute([lo])["c1"].total_delay
        d_hi = analyzer.compute([hi])["c1"].total_delay
        assert d_lo != d_hi


#: Four cross-ring connections of the paper's source at H = 1.5 ms.
KNOB_TRAFFIC = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)
KNOB_PAIRS = [
    ("host1-1", "host2-1"),
    ("host1-2", "host3-1"),
    ("host2-2", "host3-2"),
    ("host3-3", "host1-3"),
]


def bounds_with(topo, **analysis_kwargs):
    loads = [
        load(topo, f"c{i}", src, dst, h_s=0.0015, h_r=0.0015, traffic=KNOB_TRAFFIC)
        for i, (src, dst) in enumerate(KNOB_PAIRS)
    ]
    analyzer = DelayAnalyzer(topo, analysis_config=AnalysisConfig(**analysis_kwargs))
    return {cid: r.total_delay for cid, r in analyzer.compute(loads).items()}


class TestApproximationKnobs:
    """Both approximation knobs may only raise a bound, and not by much."""

    def test_envelope_segment_cap_is_conservative(self, topo):
        fine = bounds_with(topo, max_envelope_segments=256)
        coarse = bounds_with(topo, max_envelope_segments=32)
        for cid in fine:
            # Within 2x at 32 segments; at 16 the loss grows to ~75 %,
            # which is why the default cap is 96.
            assert fine[cid] - 1e-9 <= coarse[cid] <= fine[cid] * 2.0

    def test_output_delay_quantum_is_conservative(self, topo):
        exact = bounds_with(topo, output_delay_quantum=0.0)
        quantized = bounds_with(topo, output_delay_quantum=1e-3)
        for cid in exact:
            assert exact[cid] - 1e-9 <= quantized[cid] <= exact[cid] * 1.25

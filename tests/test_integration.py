"""Full-stack integration stories exercising the public API end to end."""

import pytest

from repro import (
    AdmissionController,
    CACConfig,
    ConnectionSpec,
    DualPeriodicTraffic,
    NetworkConfig,
    PeriodicTraffic,
    build_network,
)
from repro.core.delay import ConnectionLoad
from repro.sim.packet_sim import PacketLevelSimulator

TRAFFIC = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)


class TestAdmitReleaseCycle:
    """A long admit/release churn leaves the network consistent."""

    def test_churn_conserves_ledgers(self):
        topo = build_network()
        cac = AdmissionController(topo, cac_config=CACConfig(beta=0.5))
        initial = {
            rid: ring.available_sync_time for rid, ring in topo.rings.items()
        }
        pairs = [("host1-1", "host2-1"), ("host2-2", "host3-2"), ("host3-3", "host1-3")]
        for round_no in range(3):
            admitted = []
            for i, (src, dst) in enumerate(pairs):
                res = cac.request(
                    ConnectionSpec(f"r{round_no}-c{i}", src, dst, TRAFFIC, 0.09)
                )
                if res.admitted:
                    admitted.append(res.record.conn_id)
            for cid in admitted:
                cac.release(cid)
        final = {rid: ring.available_sync_time for rid, ring in topo.rings.items()}
        for rid in initial:
            assert final[rid] == pytest.approx(initial[rid], abs=1e-12)
        assert cac.connections == {}

    def test_delay_bounds_recorded_consistently(self):
        topo = build_network()
        cac = AdmissionController(topo)
        cac.request(ConnectionSpec("a", "host1-1", "host2-1", TRAFFIC, 0.09))
        cac.request(ConnectionSpec("b", "host1-2", "host2-2", TRAFFIC, 0.09))
        # Recorded bounds equal a fresh recomputation of the current state.
        fresh = cac.current_delays()
        for cid, rec in cac.connections.items():
            assert rec.delay_bound == pytest.approx(fresh[cid], rel=1e-12)


class TestEndToEndContract:
    """CAC promise -> packet-level observation, across traffic models."""

    @pytest.mark.parametrize(
        "traffic",
        [
            TRAFFIC,
            PeriodicTraffic(c=80_000.0, p=0.02),
            DualPeriodicTraffic(
                c1=90_000.0, p1=0.015, c2=30_000.0, p2=0.005, peak=80e6
            ),
        ],
        ids=["dual-periodic", "periodic", "finite-peak"],
    )
    def test_bound_dominates_observation(self, traffic):
        topo = build_network()
        cac = AdmissionController(topo)
        res = cac.request(ConnectionSpec("c", "host1-1", "host2-1", traffic, 0.09))
        assert res.admitted
        loads = [
            ConnectionLoad(r.spec, r.route, r.h_source, r.h_dest)
            for r in cac.connections.values()
        ]
        observed = PacketLevelSimulator(topo, loads).run(duration=0.3)
        assert observed.max_delay["c"] <= res.record.delay_bound + 1e-9


class TestHeterogeneityMatters:
    """The paper's motivating claim: allocation on one ring affects the
    other segments through the shared backbone."""

    def test_source_allocation_affects_other_connections(self):
        # Two connections share id1's uplink; shrink c0's H_S and its burst
        # pattern into the ATM side changes, moving c1's uplink delay.
        from repro.core.delay import DelayAnalyzer
        from repro.network.routing import compute_route

        topo = build_network()
        analyzer = DelayAnalyzer(topo)
        s0 = ConnectionSpec("c0", "host1-1", "host2-1", TRAFFIC, 0.2)
        s1 = ConnectionSpec("c1", "host1-2", "host3-1", TRAFFIC, 0.2)
        r0 = compute_route(topo, "host1-1", "host2-1")
        r1 = compute_route(topo, "host1-2", "host3-1")

        def uplink_delay_of_c1(h0: float) -> float:
            loads = [
                ConnectionLoad(s0, r0, h0, 0.002),
                ConnectionLoad(s1, r1, 0.002, 0.002),
            ]
            return analyzer.compute(loads)["c1"].hop_delay("uplink")

        # A barely-stable H_S (8.125 Mbps for an 8 Mbps source) makes c0's
        # MAC accumulate a long backlog that spills into the backbone as a
        # bigger burst — *hurting* c1's uplink bound.  This is exactly why
        # Section 5.3 warns against minimal allocations.
        lean = uplink_delay_of_c1(0.00065)
        fat = uplink_delay_of_c1(0.002)
        assert lean > fat + 1e-6

    def test_larger_network_still_analyzable(self):
        cfg = NetworkConfig(n_rings=5, hosts_per_ring=2)
        topo = build_network(cfg)
        cac = AdmissionController(topo, network_config=cfg)
        res = cac.request(
            ConnectionSpec("c", "host1-1", "host4-2", TRAFFIC, 0.09)
        )
        assert res.admitted
        assert res.record.route.switch_path == ["s1", "s4"]


class TestTrafficModelInterop:
    def test_leaky_bucket_through_cac(self):
        from repro import LeakyBucketTraffic

        traffic = LeakyBucketTraffic(sigma=50_000.0, rho=6e6, peak=50e6)
        topo = build_network()
        cac = AdmissionController(topo)
        res = cac.request(ConnectionSpec("lb", "host2-1", "host3-1", traffic, 0.1))
        assert res.admitted

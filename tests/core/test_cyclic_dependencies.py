"""Tests for the cyclic-interference handling of the propagation engine.

A unidirectional backbone ring (s1 -> s2 -> s3 -> s1) with one two-hop
connection per ring produces the classic cyclic port-dependency pattern:
port (s1,s2) cannot be analyzed before (s3,s1), which waits on (s2,s3),
which waits on (s1,s2).  The feed-forward worklist cannot order these;
the engine resolves them with the monotone fixed-point iteration and the
resulting bounds must be finite, deterministic, and conservative (each
connection's bound is at least what its acyclic subset analysis gives).
"""

import pytest

from repro.atm import AtmSwitch
from repro.config import AnalysisConfig
from repro.core.delay import ConnectionLoad, DelayAnalyzer, _shifts_converged
from repro.errors import FixedPointDivergenceError, UnstableSystemError
from repro.fddi import FDDIRing
from repro.interface_device import InterfaceDevice
from repro.network import NetworkTopology, compute_route
from repro.network.connection import ConnectionSpec
from repro.traffic import PeriodicTraffic
from repro.units import MBIT


def unidirectional_ring_topology():
    topo = NetworkTopology()
    for i in (1, 2, 3):
        topo.add_ring(FDDIRing(f"ring{i}", ttrt=0.008, bandwidth=100 * MBIT))
        topo.add_host(f"host{i}", f"ring{i}")
    for i in (1, 2, 3):
        topo.add_switch(AtmSwitch(f"s{i}"))
    for i in (1, 2, 3):
        topo.add_device(
            InterfaceDevice(f"id{i}", f"ring{i}"),
            switch_id=f"s{i}",
            uplink_rate=155.52 * MBIT,
        )
    # One-way ring: the ONLY backbone paths are clockwise two-hop detours.
    topo.connect_switches("s1", "s2", rate=155.52 * MBIT, bidirectional=False)
    topo.connect_switches("s2", "s3", rate=155.52 * MBIT, bidirectional=False)
    topo.connect_switches("s3", "s1", rate=155.52 * MBIT, bidirectional=False)
    return topo


def cyclic_loads(topo):
    traffic = PeriodicTraffic(c=40_000.0, p=0.02)
    loads = []
    for i, (src, dst) in enumerate(
        [("host1", "host3"), ("host2", "host1"), ("host3", "host2")]
    ):
        spec = ConnectionSpec(f"c{i}", src, dst, traffic, 0.2)
        loads.append(
            ConnectionLoad(spec, compute_route(topo, src, dst), 0.001, 0.001)
        )
    return loads


class TestCyclicFixedPoint:
    def test_two_hop_routes_exist(self):
        topo = unidirectional_ring_topology()
        route = compute_route(topo, "host1", "host3")
        assert route.switch_path == ["s1", "s2", "s3"]

    def test_cycle_analyzed_with_finite_bounds(self):
        topo = unidirectional_ring_topology()
        analyzer = DelayAnalyzer(topo)
        reports, usage = analyzer.compute_with_resources(cyclic_loads(topo))
        assert len(reports) == 3
        for report in reports.values():
            assert 0.0 < report.total_delay < float("inf")
        # Every directed backbone port plus uplinks/downlinks got analyzed.
        assert {"s1->s2", "s2->s3", "s3->s1"} <= {
            name.split(":")[-1] for name in usage.port_delays
        } or len(usage.port_delays) >= 3

    def test_cycle_results_deterministic(self):
        topo = unidirectional_ring_topology()
        r1 = DelayAnalyzer(topo).compute(cyclic_loads(topo))
        r2 = DelayAnalyzer(topo).compute(cyclic_loads(topo))
        for cid in r1:
            assert r1[cid].total_delay == r2[cid].total_delay
            assert r1[cid].per_hop == r2[cid].per_hop

    def test_cycle_bound_dominates_acyclic_subset(self):
        # Removing one flow breaks the cycle; with less competition the
        # remaining flows' bounds can only shrink, so the full cyclic
        # bounds must dominate the subset's.
        topo = unidirectional_ring_topology()
        loads = cyclic_loads(topo)
        full = DelayAnalyzer(topo).compute(loads)
        subset = DelayAnalyzer(topo).compute(loads[:2])
        for cid in subset:
            assert full[cid].total_delay >= subset[cid].total_delay - 1e-12

    def test_divergence_raises_and_is_unstable(self):
        topo = unidirectional_ring_topology()
        analyzer = DelayAnalyzer(
            topo, analysis_config=AnalysisConfig(fixed_point_max_iterations=1)
        )
        with pytest.raises(FixedPointDivergenceError) as excinfo:
            analyzer.compute(cyclic_loads(topo))
        # CAC rejection path: divergence is a flavour of instability.
        assert isinstance(excinfo.value, UnstableSystemError)

    def test_acyclic_subset_analyzable(self):
        # Two of the three flows leave the dependency graph acyclic.
        topo = unidirectional_ring_topology()
        analyzer = DelayAnalyzer(topo)
        reports = analyzer.compute(cyclic_loads(topo)[:2])
        assert len(reports) == 2


class TestForcedFixedPointEquivalence:
    def test_feed_forward_bit_identical(self):
        # On an acyclic load set the fixed point must reproduce the chain
        # analysis exactly — same delays, same hops, same output curves.
        topo_a = unidirectional_ring_topology()
        topo_b = unidirectional_ring_topology()
        loads_a = cyclic_loads(topo_a)[:2]
        loads_b = cyclic_loads(topo_b)[:2]
        plain = DelayAnalyzer(topo_a).compute(loads_a)
        forced = DelayAnalyzer(
            topo_b, analysis_config=AnalysisConfig(force_fixed_point=True)
        ).compute(loads_b)
        assert set(plain) == set(forced)
        for cid in plain:
            assert plain[cid].total_delay == forced[cid].total_delay
            assert plain[cid].per_hop == forced[cid].per_hop
            assert (
                plain[cid].output.fingerprint()
                == forced[cid].output.fingerprint()
            )


class TestShiftConvergence:
    """The fixed point's convergence test, on both kinds of quantum.

    On the zero-quantum ring families the shifts repeat exactly once
    they converge, so only a direct call tells the relative test from
    exact repetition.
    """

    def test_zero_quantum_accepts_a_change_within_the_relative_tolerance(self):
        assert _shifts_converged({"p": 1.0}, {"p": 1.0 + 1e-12}, 0.0)
        assert _shifts_converged({"p": 0.0}, {"p": 0.0}, 0.0)

    def test_zero_quantum_rejects_a_change_beyond_it(self):
        assert not _shifts_converged({"p": 1.0}, {"p": 1.0 + 1e-6}, 0.0)
        assert not _shifts_converged(
            {"p": 1.0, "q": 2.0}, {"p": 1.0, "q": 2.0 + 1e-6}, 0.0
        )

    def test_positive_quantum_needs_exact_repetition(self):
        assert _shifts_converged({"p": 3e-4}, {"p": 3e-4}, 1e-4)
        assert not _shifts_converged({"p": 3e-4}, {"p": 3e-4 * (1 + 1e-12)}, 1e-4)

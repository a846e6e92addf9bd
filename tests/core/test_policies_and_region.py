"""Tests for allocation policies and feasible-region utilities."""

import pytest

from repro.config import CACConfig, NetworkConfig, build_network
from repro.core import AdmissionController, FDDILocalPolicy, MaxAvailPolicy
from repro.core.feasible_region import (
    convexity_violations,
    feasibility_grid,
    lower_boundary_on_ray,
)
from repro.core.policies import AllocationContext, BetaPolicy, FixedPolicy
from repro.core.delay import ConnectionLoad
from repro.fddi.timed_token import min_sync_allocation
from repro.network.connection import ConnectionSpec
from repro.network.routing import compute_route
from repro.traffic import DualPeriodicTraffic

TRAFFIC = DualPeriodicTraffic(c1=240_000.0, p1=0.030, c2=80_000.0, p2=0.005)


def spec(conn_id, src="host1-1", dst="host2-1", deadline=0.15):
    return ConnectionSpec(conn_id, src, dst, TRAFFIC, deadline)


class TestPolicies:
    def test_beta_policy_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            BetaPolicy(1.5)

    def test_max_avail_policy_grants_everything(self):
        topo = build_network()
        cac = AdmissionController(topo, policy=MaxAvailPolicy())
        res = cac.request(spec("c1"))
        assert res.admitted
        assert res.record.h_source == pytest.approx(res.h_max_avail[0])

    def test_fddi_local_policy_admits_simple_case(self):
        topo = build_network()
        cac = AdmissionController(topo, policy=FDDILocalPolicy(headroom=3.0))
        res = cac.request(spec("c1"))
        assert res.admitted

    def test_fddi_local_policy_rejects_without_search(self):
        # With a too-small headroom the local grant starves the connection
        # (can't meet its deadline) and the policy gives up — no search.
        topo = build_network()
        cac = AdmissionController(topo, policy=FDDILocalPolicy(headroom=1.05))
        res = cac.request(spec("c1", deadline=0.05))
        topo2 = build_network()
        cac2 = AdmissionController(topo2, cac_config=CACConfig(beta=0.5))
        res2 = cac2.request(spec("c1", deadline=0.05))
        # The paper's searching CAC admits what the local rule cannot.
        assert res2.admitted
        assert not res.admitted

    def test_fixed_policy_exact_grant(self):
        topo = build_network()
        cac = AdmissionController(topo, policy=FixedPolicy(0.002, 0.002))
        res = cac.request(spec("c1"))
        assert res.admitted
        assert res.record.h_source == 0.002

    def test_fixed_policy_infeasible_point_rejected(self):
        topo = build_network()
        cac = AdmissionController(topo, policy=FixedPolicy(0.0007, 0.0007))
        res = cac.request(spec("c1", deadline=0.04))
        assert not res.admitted

    def test_local_policy_headroom_validation(self):
        with pytest.raises(ValueError):
            FDDILocalPolicy(headroom=0.0)


class _Oracle:
    """Feasibility oracle over a fresh network for one candidate spec."""

    def __init__(self, deadline=0.15):
        self.topo = build_network()
        self.cac = AdmissionController(self.topo)
        self.spec = spec("cand", deadline=deadline)
        self.route = compute_route(self.topo, "host1-1", "host2-1")

    def __call__(self, h_s: float, h_r: float) -> bool:
        if h_s <= 0 or h_r <= 0:
            return False
        load = ConnectionLoad(self.spec, self.route, h_s, h_r)
        return self.cac.check_feasible(load) is not None


class TestFeasibleRegion:
    def test_grid_has_feasible_and_infeasible_cells(self):
        oracle = _Oracle(deadline=0.08)
        sample = feasibility_grid(
            oracle, (0.0003, 0.0079), (0.0003, 0.0079), resolution=6
        )
        frac = sample.fraction_feasible()
        assert 0.0 < frac < 1.0

    def test_region_is_upper_right_closed(self):
        # Theorem 3 geometry: more bandwidth never leaves the region.
        oracle = _Oracle(deadline=0.10)
        sample = feasibility_grid(
            oracle, (0.0005, 0.0079), (0.0005, 0.0079), resolution=5
        )
        grid = sample.feasible
        n = len(grid)
        for i in range(n):
            for j in range(n):
                if grid[i][j]:
                    assert all(grid[k][j] for k in range(i, n))
                    assert all(grid[i][k] for k in range(j, n))

    def test_convexity_no_violations(self):
        oracle = _Oracle(deadline=0.10)
        sample = feasibility_grid(
            oracle, (0.0005, 0.0079), (0.0005, 0.0079), resolution=5
        )
        violations = convexity_violations(sample, oracle, n_checks=24, seed=7)
        assert violations == []

    def test_lower_boundary_on_ray(self):
        oracle = _Oracle(deadline=0.10)
        pt = lower_boundary_on_ray(oracle, (0.0079, 0.0079), tolerance=0.01)
        assert pt is not None
        h_s, h_r = pt
        assert oracle(h_s, h_r)
        # Just below the boundary is infeasible.
        assert not oracle(h_s * 0.7, h_r * 0.7)

    def test_lower_boundary_none_when_infeasible(self):
        oracle = _Oracle(deadline=0.001)
        assert lower_boundary_on_ray(oracle, (0.0079, 0.0079)) is None

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            feasibility_grid(lambda a, b: True, (0, 1), (0, 1), resolution=1)

    def test_lower_boundary_curve_shape(self):
        """Figure 6: the bottom of the region is a (weakly) decreasing
        trade-off curve — more receiver bandwidth never *raises* the
        sender's minimum requirement."""
        from repro.core.feasible_region import lower_boundary_curve

        oracle = _Oracle(deadline=0.085)
        h_r_values = [0.001, 0.002, 0.004, 0.0079]
        boundary = lower_boundary_curve(
            oracle, h_r_values, h_s_max=0.0079, tolerance=0.01
        )
        found = [(hr, hs) for hr, hs in boundary if hs is not None]
        assert len(found) >= 3
        for (hr1, hs1), (hr2, hs2) in zip(found, found[1:]):
            assert hs2 <= hs1 + 1e-4  # weakly decreasing

    def test_lower_boundary_none_where_infeasible(self):
        from repro.core.feasible_region import lower_boundary_curve

        oracle = _Oracle(deadline=0.085)
        # A vanishing H_R cannot be compensated by any H_S.
        boundary = lower_boundary_curve(
            oracle, [1e-6], h_s_max=0.0079, tolerance=0.05
        )
        assert boundary[0][1] is None


class TestFeasibilityIsNotMonotone:
    """More allocation can raise a bound, so feasibility is not monotone in
    the search parameter ``s``: a larger ``H_S`` lets the source MAC pass
    larger bursts to the destination MAC."""

    def _bounds(self, s_values, vary="both"):
        cfg = NetworkConfig(n_rings=2)
        topo = build_network(cfg)
        cac = AdmissionController(topo, network_config=cfg)
        traffic = DualPeriodicTraffic(c1=100_000.0, p1=0.015, c2=50_000.0, p2=0.005)
        conn = ConnectionSpec("c", "host1-1", "host2-2", traffic, 1.0)
        route = compute_route(topo, "host1-1", "host2-2")
        rings = [topo.rings[route.source_ring], topo.rings[route.dest_ring]]
        ctx = AllocationContext(
            h_min_abs=tuple(min_sync_allocation(r.bandwidth) for r in rings),
            h_max_avail=tuple(r.available_sync_time for r in rings),
            local=False,
            check_feasible=None,
            reports_at_max={},
            config=CACConfig(),
        )
        reports = []
        for s in s_values:
            h_s, h_r = ctx.point(s)
            if vary == "source":
                h_r = ctx.point(s_values[0])[1]
            load = ConnectionLoad(conn, route, h_s, h_r)
            reports.append(cac.analyzer.compute([load])["c"])
        return reports

    def test_lone_connection_bound_rises_with_allocation(self):
        low, high = self._bounds((5 / 128, 6 / 128))
        assert low.total_delay == pytest.approx(0.059020, abs=5e-7)
        assert high.total_delay == pytest.approx(0.059239, abs=5e-7)
        # So a 0.0591 s deadline is met at s = 5/128 and missed at 6/128:
        # the source MAC gets faster, the destination MAC slower.
        assert low.hop_delay("fddi-mac:ring1") > high.hop_delay("fddi-mac:ring1")
        assert low.hop_delay("fddi-mac:ring2") < high.hop_delay("fddi-mac:ring2")

    def test_the_source_allocation_alone_raises_it(self):
        low, high = self._bounds((5 / 128, 6 / 128), vary="source")
        assert high.total_delay > low.total_delay

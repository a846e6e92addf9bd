"""Tests for the connection-level (Section 6) simulator."""

import pytest

from repro.config import NetworkConfig, SimulationConfig
from repro.sim.connection_sim import ConnectionSimConfig, ConnectionSimulator


def small_run(**kw):
    base = dict(utilization=0.3, beta=0.5, seed=5, n_requests=40, warmup_requests=5)
    base.update(kw)
    return ConnectionSimulator(ConnectionSimConfig(**base)).run()


class TestConnectionSimulator:
    @pytest.mark.parametrize(
        "beta, n_requests, n_admitted, n_rejected_cac, admission_probability",
        [
            (0.0, 16, 1, 15, "0.0625"),
            (0.5, 16, 5, 11, "0.3125"),
            (1.0, 16, 2, 14, "0.125"),
        ],
    )
    def test_figure7_slice_is_pinned(
        self, beta, n_requests, n_admitted, n_rejected_cac, admission_probability
    ):
        """A figure-7 point's decision trajectory, exactly: any drift in
        the envelope algebra that flips one admission shows here."""
        res = small_run(utilization=0.6, beta=beta, seed=1, n_requests=20, warmup_requests=4)
        m = res.metrics
        assert (
            m.n_requests,
            m.n_admitted,
            m.n_rejected_cac,
            repr(res.admission_probability),
        ) == (n_requests, n_admitted, n_rejected_cac, admission_probability)

    def test_runs_to_completion(self):
        res = small_run()
        assert res.metrics.n_requests > 0
        assert 0.0 <= res.admission_probability <= 1.0

    def test_reproducible_with_seed(self):
        a = small_run(seed=11)
        b = small_run(seed=11)
        assert a.admission_probability == b.admission_probability
        assert a.metrics.n_admitted == b.metrics.n_admitted

    def test_different_seed_changes_workload(self):
        a = small_run(seed=11)
        b = small_run(seed=12)
        # Some counter differs with overwhelming probability.
        assert (
            a.metrics.n_admitted != b.metrics.n_admitted
            or a.sim_time != b.sim_time
        )

    def test_departures_follow_admissions(self):
        res = small_run()
        assert res.metrics.n_departures <= res.metrics.n_admitted + 5  # warmup

    def test_routes_cross_backbone(self):
        cfg = ConnectionSimConfig(
            utilization=0.2, beta=0.5, seed=3, n_requests=20, warmup_requests=0
        )
        sim = ConnectionSimulator(cfg)
        sim.run()
        for rec in sim.cac.connections.values():
            assert rec.route.crosses_backbone

    def test_arrival_rate_scales_with_utilization(self):
        lo = ConnectionSimulator(
            ConnectionSimConfig(utilization=0.1, seed=1, n_requests=1)
        )
        hi = ConnectionSimulator(
            ConnectionSimConfig(utilization=0.9, seed=1, n_requests=1)
        )
        assert hi.arrival_rate == pytest.approx(9 * lo.arrival_rate)

    def test_load_scale_applies(self):
        base = SimulationConfig()
        scaled = SimulationConfig(load_scale=0.5)
        a = ConnectionSimulator(
            ConnectionSimConfig(utilization=0.5, seed=1, n_requests=1, simulation=base)
        )
        b = ConnectionSimulator(
            ConnectionSimConfig(utilization=0.5, seed=1, n_requests=1, simulation=scaled)
        )
        assert b.arrival_rate == pytest.approx(0.5 * a.arrival_rate)

    def test_heavier_load_admits_no_more(self):
        light = small_run(utilization=0.05, n_requests=60)
        heavy = small_run(utilization=0.9, n_requests=60)
        assert heavy.admission_probability <= light.admission_probability + 0.15

    def test_mixed_workload_generator_accepted(self):
        import random

        from repro.traffic import MixedWorkloadGenerator, WorkloadSpec

        classes = [
            (
                "video",
                2.0,
                WorkloadSpec(
                    c1=120e3, p1=0.015, c2=60e3, p2=0.005,
                    deadline_min=0.05, deadline_max=0.1,
                ),
            ),
            (
                "audio",
                1.0,
                WorkloadSpec(
                    c1=6e3, p1=0.02, c2=3e3, p2=0.01,
                    deadline_min=0.04, deadline_max=0.06,
                ),
            ),
        ]
        cfg = ConnectionSimConfig(
            utilization=0.2, beta=0.5, seed=4, n_requests=25, warmup_requests=3
        )
        sim = ConnectionSimulator(
            cfg,
            workload_generator=MixedWorkloadGenerator(classes, random.Random(4)),
        )
        res = sim.run()
        assert 0.0 <= res.admission_probability <= 1.0

    def test_active_connections_respect_deadlines(self):
        cfg = ConnectionSimConfig(
            utilization=0.4, beta=0.5, seed=9, n_requests=30, warmup_requests=0
        )
        sim = ConnectionSimulator(cfg)
        sim.run()
        if sim.cac.connections:
            delays = sim.cac.current_delays()
            for cid, d in delays.items():
                assert d <= sim.cac.connections[cid].spec.deadline + 1e-9

"""Loader: spec -> engine configs, end-to-end runs, signatures."""

import dataclasses

import pytest

from repro.config import CACConfig, NetworkConfig, SimulationConfig
from repro.errors import ScenarioSpecError
from repro.experiments.common import ExperimentSettings
from repro.faults.injector import FaultConfig, ScriptedFault
from repro.faults.retry import RetryPolicy
from repro.network.connection import ConnectionSpec
from repro.scenario import loader
from repro.scenario.spec import (
    AnalysisKnobs,
    ArrivalsSpec,
    FaultPlan,
    ScenarioSpec,
)
from repro.traffic.dual_periodic import DualPeriodicTraffic


def _entry(conn_id: str, src: str, dst: str) -> ConnectionSpec:
    return ConnectionSpec(
        conn_id=conn_id,
        source_host=src,
        dest_host=dst,
        traffic=DualPeriodicTraffic(c1=8e3, p1=0.01, c2=8e3, p2=0.004),
        deadline=0.1,
    )


class TestCacConfig:
    def test_exact_mode_is_the_default_config(self):
        """Default knobs lower to the simulator's own default
        ``CACConfig(beta=beta)``, so figure CSVs stay identical."""
        spec = ScenarioSpec(
            name="t", arrivals=ArrivalsSpec(utilization=0.3)
        )
        assert loader.cac_config(spec) == CACConfig(beta=spec.cac.beta)

    def test_full_recompute_mode_materializes(self):
        spec = ScenarioSpec(
            name="t",
            cac=AnalysisKnobs(beta=0.25, incremental=False),
            arrivals=ArrivalsSpec(utilization=0.3),
        )
        cfg = loader.cac_config(spec)
        assert cfg.beta == 0.25
        assert cfg.incremental is False


class TestConnectionSimConfig:
    def test_matches_hand_built_figure_point(self):
        """The experiments' scenario() producer must reconstruct exactly
        the run config they used to build by hand (byte-identical CSVs
        depend on it)."""
        settings = ExperimentSettings()
        u, beta, seed = 0.5, 0.5, settings.seeds[0]
        cfg = loader.connection_sim_config(settings.scenario(u, beta, seed))
        assert cfg.utilization == u
        assert cfg.beta == beta
        assert cfg.seed == seed
        assert cfg.n_requests == settings.n_requests
        assert cfg.warmup_requests == settings.warmup_requests
        assert cfg.network == settings.network
        assert cfg.cac == CACConfig(beta=beta)
        assert cfg.faults is None and cfg.retry is None

    def test_faults_map_through(self):
        faults = FaultConfig(link_mtbf=100.0, link_mttr=5.0)
        retry = RetryPolicy(base_delay=1.0, max_attempts=2)
        script = (
            ScriptedFault(time=1.0, action="fail", target=("s1", "s2")),
        )
        spec = ScenarioSpec(
            name="t",
            arrivals=ArrivalsSpec(utilization=0.3),
            faults=FaultPlan(config=faults, script=script, retry=retry),
        )
        cfg = loader.connection_sim_config(spec)
        assert cfg.faults == faults
        assert cfg.retry == retry
        assert cfg.fault_script is not None
        assert cfg.fault_script.events == script

    def test_explicit_only_spec_has_no_sim_config(self):
        spec = ScenarioSpec(
            name="t",
            connections=(_entry("c1", "host1-1", "host2-1"),),
        )
        with pytest.raises(ScenarioSpecError, match="no stochastic"):
            loader.connection_sim_config(spec)

    def test_workload_and_scale_carry_over(self):
        workload = SimulationConfig().workload
        spec = ScenarioSpec(
            name="t",
            arrivals=ArrivalsSpec(
                utilization=0.4,
                workload=workload,
                load_scale=1.25,
                mean_lifetime=30.0,
            ),
        )
        sim = loader.connection_sim_config(spec).simulation
        assert sim.workload == workload
        assert sim.load_scale == 1.25
        assert sim.mean_lifetime == 30.0


class TestRunScenario:
    TOPOLOGY = NetworkConfig(n_rings=3, hosts_per_ring=2)

    def test_explicit_only_run(self):
        spec = ScenarioSpec(
            name="t",
            topology=self.TOPOLOGY,
            connections=(
                _entry("c1", "host1-1", "host2-1"),
                _entry("c2", "host2-2", "host3-1"),
            ),
        )
        outcome = loader.run_scenario(spec)
        assert [d.conn_id for d in outcome.explicit] == ["c1", "c2"]
        assert all(d.admitted for d in outcome.explicit)
        assert outcome.sim_result is None
        assert len(outcome.active_loads()) == 2
        assert set(outcome.final_bounds()) == {"c1", "c2"}

    def test_bad_endpoint_is_recorded_not_fatal(self):
        spec = ScenarioSpec(
            name="t",
            topology=self.TOPOLOGY,
            connections=(
                _entry("ghost", "host9-9", "host1-1"),
                _entry("c1", "host1-1", "host2-1"),
            ),
        )
        outcome = loader.run_scenario(spec)
        ghost, ok = outcome.explicit
        assert not ghost.admitted
        assert ghost.reason.startswith("error:")
        assert ok.admitted

    def test_signature_is_replay_stable(self):
        spec = ScenarioSpec(
            name="t",
            topology=self.TOPOLOGY,
            arrivals=ArrivalsSpec(
                utilization=0.4, n_requests=12, warmup_requests=2
            ),
            connections=(_entry("c1", "host1-1", "host3-1"),),
        )
        first = loader.run_scenario(spec).signature
        second = loader.run_scenario(spec).signature
        assert first == second
        assert "explicit c1" in first
        assert "metrics" in first

    def test_signature_differs_across_seeds(self):
        def sig(seed: int) -> str:
            spec = ScenarioSpec(
                name="t",
                topology=self.TOPOLOGY,
                arrivals=ArrivalsSpec(
                    utilization=0.6, seed=seed, n_requests=15
                ),
            )
            return loader.run_scenario(spec).signature

        assert sig(1) != sig(2)

    def test_incremental_and_full_agree(self):
        spec = ScenarioSpec(
            name="t",
            topology=self.TOPOLOGY,
            arrivals=ArrivalsSpec(
                utilization=0.5, n_requests=15, warmup_requests=0
            ),
        )
        full = dataclasses.replace(
            spec, cac=AnalysisKnobs(beta=spec.cac.beta, incremental=False)
        )
        assert (
            loader.run_scenario(spec).signature
            == loader.run_scenario(full).signature
        )


class TestPacketValidation:
    def test_bounds_cover_admitted_set(self):
        spec = ScenarioSpec(
            name="t",
            topology=NetworkConfig(n_rings=2, hosts_per_ring=1),
            connections=(_entry("c1", "host1-1", "host2-1"),),
        )
        outcome = loader.run_scenario(spec)
        result, bounds = loader.run_packet_validation(outcome)
        assert set(bounds) == {"c1"}
        assert bounds["c1"] is not None
        assert result.delivered_batches.get("c1", 0) > 0
        assert result.worst_observed("c1") <= bounds["c1"]


class TestAdmissionController:
    def test_exact_mode_uses_spec_beta(self):
        spec = ScenarioSpec(
            name="t",
            cac=AnalysisKnobs(beta=0.75),
            connections=(_entry("c1", "host1-1", "host2-1"),),
        )
        cac = loader.admission_controller(spec)
        assert cac.config == CACConfig(beta=0.75)

"""The parallel sweep runner must reproduce the serial results exactly."""

import pytest

from repro.config import SimulationConfig
from repro.core.policies import MaxAvailPolicy
from repro.experiments.ablations import POLICY_VARIANTS, run_policy_ablation
from repro.experiments.common import ExperimentSettings
from repro.experiments.figure7 import run_figure7
from repro.experiments.parallel import (
    SimTask,
    SweepCellError,
    run_sims,
)
from repro.sim.connection_sim import ConnectionSimConfig


class ExplodingPolicy(MaxAvailPolicy):
    """Module-level (hence picklable) policy that fails on first use."""

    def select(self, ctx):
        raise RuntimeError("boom in worker")


def tiny_settings():
    return ExperimentSettings(
        n_requests=25, warmup_requests=5, seeds=(11,), calibrate_load=False
    )


def tiny_config(seed=11, utilization=0.3, beta=0.5):
    return ConnectionSimConfig(
        utilization=utilization,
        beta=beta,
        seed=seed,
        n_requests=25,
        warmup_requests=5,
        simulation=SimulationConfig(load_scale=0.15),
    )


def series_key(series):
    return [(s.label, s.xs, s.ys, s.spreads) for s in series]


class TestRunSims:
    def test_results_in_task_order(self):
        tasks = [SimTask(tiny_config(seed=s)) for s in (1, 2, 3)]
        serial = run_sims(tasks, jobs=1)
        parallel = run_sims(tasks, jobs=2)
        assert [r.config.seed for r in parallel] == [1, 2, 3]
        assert [r.admission_probability for r in parallel] == [
            r.admission_probability for r in serial
        ]

    def test_single_task_runs_inline(self):
        (res,) = run_sims([SimTask(tiny_config())], jobs=8)
        assert 0.0 <= res.admission_probability <= 1.0

    def test_unpicklable_task_falls_back_to_serial(self):
        from repro.core.policies import MaxAvailPolicy

        class LocalPolicy(MaxAvailPolicy):
            # A class defined inside a function cannot be pickled, so the
            # runner must quietly run these tasks in-process instead.
            pass

        tasks = [
            SimTask(tiny_config(seed=1)),
            SimTask(tiny_config(seed=2), policy=LocalPolicy()),
        ]
        results = run_sims(tasks, jobs=2)
        assert len(results) == 2
        assert all(0.0 <= r.admission_probability <= 1.0 for r in results)

    def test_worker_crash_names_the_failed_cell(self):
        tasks = [
            SimTask(tiny_config(seed=1)),
            SimTask(tiny_config(seed=2), policy=ExplodingPolicy()),
            SimTask(tiny_config(seed=3)),
        ]
        with pytest.raises(SweepCellError) as excinfo:
            run_sims(tasks, jobs=2)
        err = excinfo.value
        assert err.index == 1
        assert "seed=2" in err.cell
        assert err.exc_name == "RuntimeError"
        # The worker's formatted traceback travels back to the parent.
        assert "boom in worker" in str(err)
        assert "Traceback" in str(err)

    def test_worker_crash_in_serial_mode_raises_directly(self):
        tasks = [SimTask(tiny_config(seed=2), policy=ExplodingPolicy())]
        with pytest.raises(RuntimeError, match="boom in worker"):
            run_sims(tasks, jobs=1)


class TestSweepEquivalence:
    def test_figure7_parallel_matches_serial(self):
        settings = tiny_settings()
        serial = run_figure7(
            settings, utilizations=(0.3,), betas=(0.0, 1.0), jobs=1
        )
        parallel = run_figure7(
            settings, utilizations=(0.3,), betas=(0.0, 1.0), jobs=2
        )
        assert series_key(serial) == series_key(parallel)

    def test_policy_ablation_with_closure_policy_parallel(self):
        """The fddi-local variant builds its policy from a lambda; the
        instance (not the lambda) must cross into the workers."""
        settings = tiny_settings()
        variants = [v for v in POLICY_VARIANTS if v.name in ("beta=0.5", "fddi-local x3")]
        serial = run_policy_ablation(
            settings, utilizations=(0.3,), variants=variants, jobs=1
        )
        parallel = run_policy_ablation(
            settings, utilizations=(0.3,), variants=variants, jobs=2
        )
        assert series_key(serial) == series_key(parallel)

"""Ablations E4 and E5.

E4 (allocation policies): the paper's beta rule against the strawmen its
Section 5.3 discusses — grant-everything (max-available), the pure
min-need/max-need extremes, the origin-ray variant of the search line, and
an FDDI-only local allocation rule in the spirit of refs [1, 24].

E5 (workload sensitivity): how deadline tightness and source burstiness
move the admission probability, holding the CAC at beta = 0.5.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import CACConfig
from repro.core.policies import AllocationPolicy, FDDILocalPolicy, MaxAvailPolicy
from repro.experiments.common import (
    ExperimentSettings,
    SeriesResult,
    format_table,
    mean_and_spread,
)
from repro.experiments.parallel import SimTask, run_sims
from repro.scenario.loader import connection_sim_config
from repro.sim.connection_sim import ConnectionSimConfig
from repro.traffic.generators import WorkloadSpec


# ----------------------------------------------------------------------
# E4: allocation policies
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PolicyVariant:
    name: str
    #: Builds a fresh policy (None = the CAC's default BetaPolicy).
    make_policy: Optional[Callable[[], AllocationPolicy]] = None
    cac_config: Optional[CACConfig] = None


POLICY_VARIANTS: Sequence[PolicyVariant] = (
    PolicyVariant("beta=0.5", cac_config=CACConfig(beta=0.5)),
    PolicyVariant("min-need (beta=0)", cac_config=CACConfig(beta=0.0)),
    PolicyVariant("max-need (beta=1)", cac_config=CACConfig(beta=1.0)),
    PolicyVariant("max-avail", make_policy=MaxAvailPolicy),
    PolicyVariant(
        "origin-ray beta=0.5", cac_config=CACConfig(beta=0.5, use_origin_ray=True)
    ),
    PolicyVariant("fddi-local x3", make_policy=lambda: FDDILocalPolicy(headroom=3.0)),
)


def run_policy_ablation(
    settings: Optional[ExperimentSettings] = None,
    utilizations: Sequence[float] = (0.3, 0.9),
    variants: Sequence[PolicyVariant] = POLICY_VARIANTS,
    jobs: int = 1,
) -> List[SeriesResult]:
    """AP per policy variant at light and heavy load."""
    settings = settings or ExperimentSettings()
    sim_cfg = settings.simulation_config()
    # Policies are instantiated here (one fresh instance per run, exactly
    # as the serial loop did) so only picklable objects enter the tasks —
    # a closure in make_policy never crosses the process boundary.
    tasks = [
        SimTask(
            ConnectionSimConfig(
                utilization=u,
                beta=0.5,
                seed=seed,
                n_requests=settings.n_requests,
                warmup_requests=settings.warmup_requests,
                network=settings.network,
                simulation=sim_cfg,
                cac=variant.cac_config,
            ),
            policy=variant.make_policy() if variant.make_policy else None,
        )
        for variant in variants
        for u in utilizations
        for seed in settings.seeds
    ]
    results = iter(run_sims(tasks, jobs=jobs))
    series: List[SeriesResult] = []
    for variant in variants:
        s = SeriesResult(label=variant.name)
        for u in utilizations:
            aps = [next(results).admission_probability for _ in settings.seeds]
            mean, spread = mean_and_spread(aps)
            s.add(u, mean, spread)
        series.append(s)
    return series


# ----------------------------------------------------------------------
# E5: workload sensitivity
# ----------------------------------------------------------------------

def _workload(deadline_scale: float = 1.0, burst_ratio: float = 2.0) -> WorkloadSpec:
    """The default workload with scaled deadlines / inner-burst intensity.

    ``burst_ratio`` is C2's inner rate relative to the sustained rate
    (1.0 = smooth periodic; larger = burstier inside each outer window).
    """
    p1, p2 = 0.015, 0.005
    c1 = 120_000.0
    # The 1.001 headroom keeps C2/P2 strictly above C1/P1 at burst_ratio=1
    # (the descriptor rejects inner rates below the sustained rate, and an
    # exact float equality can land a hair under it).
    c2 = min(c1, max(c1 * (p2 / p1) * 1.001, burst_ratio * (c1 / p1) * p2))
    return WorkloadSpec(
        c1=c1,
        p1=p1,
        c2=c2,
        p2=p2,
        deadline_min=0.040 * deadline_scale,
        deadline_max=0.100 * deadline_scale,
        jitter=0.2,
    )


def run_workload_ablation(
    settings: Optional[ExperimentSettings] = None,
    utilization: float = 0.6,
    deadline_scales: Sequence[float] = (0.75, 1.0, 1.5, 2.0),
    burst_ratios: Sequence[float] = (1.0, 1.5, 2.0),
    jobs: int = 1,
) -> Dict[str, List[SeriesResult]]:
    """AP vs deadline tightness and vs burstiness at fixed load."""
    settings = settings or ExperimentSettings()

    def task_for(workload: WorkloadSpec, seed: int) -> SimTask:
        spec = settings.scenario(utilization, 0.5, seed)
        arrivals = dataclasses.replace(spec.arrivals, workload=workload)
        return SimTask(
            connection_sim_config(dataclasses.replace(spec, arrivals=arrivals))
        )

    tasks = [
        task_for(_workload(deadline_scale=ds), seed)
        for ds in deadline_scales
        for seed in settings.seeds
    ] + [
        task_for(_workload(burst_ratio=br), seed)
        for br in burst_ratios
        for seed in settings.seeds
    ]
    results = iter(run_sims(tasks, jobs=jobs))

    deadline_series = SeriesResult(label=f"AP (U={utilization:g})")
    for ds in deadline_scales:
        aps = [next(results).admission_probability for _ in settings.seeds]
        mean, spread = mean_and_spread(aps)
        deadline_series.add(ds, mean, spread)

    burst_series = SeriesResult(label=f"AP (U={utilization:g})")
    for br in burst_ratios:
        aps = [next(results).admission_probability for _ in settings.seeds]
        mean, spread = mean_and_spread(aps)
        burst_series.add(br, mean, spread)

    return {"deadline": [deadline_series], "burstiness": [burst_series]}


def main_policies(
    settings: Optional[ExperimentSettings] = None, jobs: int = 1
) -> str:
    series = run_policy_ablation(settings, jobs=jobs)
    out = ["E4 — Allocation-policy ablation (AP by backbone load)", ""]
    out.append(format_table("U", series))
    return "\n".join(out)


def main_workload(
    settings: Optional[ExperimentSettings] = None, jobs: int = 1
) -> str:
    results = run_workload_ablation(settings, jobs=jobs)
    out = ["E5 — Workload sensitivity at U=0.6, beta=0.5", ""]
    out.append("Deadline scale sweep (1.0 = paper-default 40-100 ms):")
    out.append(format_table("scale", results["deadline"]))
    out.append("")
    out.append("Inner-burst intensity sweep (inner rate / sustained rate):")
    out.append(format_table("ratio", results["burstiness"]))
    return "\n".join(out)

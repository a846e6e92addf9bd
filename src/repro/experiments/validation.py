"""Experiment E3: the analytic worst-case bound dominates observed delays.

Builds a scenario spec of explicit connections, admits them through
:func:`repro.scenario.loader.run_scenario`, then executes the data path
with the packet-level simulator (greedy worst-case sources, via
:func:`~repro.scenario.loader.run_packet_validation`) and compares, per
connection, the observed maximum end-to-end delay against the analytic
bound the CAC computed at admission time.  The bound must dominate; the
ratio indicates how much of the bound's pessimism comes from worst-case
token phasing the simulator does not reproduce.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.config import NetworkConfig
from repro.network.connection import ConnectionSpec
from repro.scenario.loader import run_packet_validation, run_scenario
from repro.scenario.spec import (
    AnalysisKnobs,
    PacketRunSpec,
    ScenarioSpec,
)
from repro.units import MS_PER_S
from repro.traffic import DualPeriodicTraffic

#: Connection endpoints used for the validation scenario (two per ring).
DEFAULT_PAIRS = (
    ("host1-1", "host2-1"),
    ("host1-2", "host3-1"),
    ("host2-2", "host3-2"),
    ("host2-3", "host1-3"),
    ("host3-3", "host1-4"),
    ("host3-4", "host2-4"),
)


@dataclasses.dataclass(frozen=True)
class ValidationRow:
    conn_id: str
    analytic_bound: float
    observed_max: float
    observed_mean: float
    batches: int

    @property
    def holds(self) -> bool:
        return self.observed_max <= self.analytic_bound + 1e-9

    @property
    def tightness(self) -> float:
        """observed / bound (1.0 would mean the bound is exactly attained)."""
        return self.observed_max / self.analytic_bound if self.analytic_bound else 0.0


def run_validation(
    beta: float = 0.5,
    deadline: float = 0.09,
    duration: float = 0.5,
    pairs=DEFAULT_PAIRS,
    network: Optional[NetworkConfig] = None,
    adversarial_phase: bool = False,
) -> List[ValidationRow]:
    """Admit ``pairs`` and compare packet-level delays with the bounds.

    With ``adversarial_phase`` the simulated rings assume a worst-phase
    token whenever they wake from idle, which closes part of the gap
    between observation and bound.
    """
    traffic = DualPeriodicTraffic(c1=120_000.0, p1=0.015, c2=60_000.0, p2=0.005)
    spec = ScenarioSpec(
        name="validation",
        topology=network or NetworkConfig(),
        cac=AnalysisKnobs(beta=beta),
        connections=tuple(
            ConnectionSpec(f"c{i}", src, dst, traffic, deadline)
            for i, (src, dst) in enumerate(pairs)
        ),
        packet=PacketRunSpec(
            duration=duration, adversarial_phase=adversarial_phase
        ),
    )
    outcome = run_scenario(spec)
    for decision in outcome.explicit:
        if not decision.admitted:
            raise RuntimeError(
                f"validation setup failed to admit {decision.conn_id}: "
                f"{decision.reason}"
            )
    result, bounds = run_packet_validation(outcome)
    return [
        ValidationRow(
            conn_id=cid,
            analytic_bound=bounds[cid],
            observed_max=result.max_delay.get(cid, 0.0),
            observed_mean=result.mean_delay.get(cid, 0.0),
            batches=result.delivered_batches.get(cid, 0),
        )
        for cid in sorted(bounds)
    ]


def main() -> str:
    out = ["E3 — Analytic bound vs packet-level simulation"]
    all_hold = True
    for adversarial in (False, True):
        rows = run_validation(adversarial_phase=adversarial)
        label = "adversarial token phase" if adversarial else "benign token phase"
        out += [
            "",
            f"--- {label} ---",
            f"{'conn':8s} {'bound(ms)':>10s} {'max obs(ms)':>12s} "
            f"{'mean obs(ms)':>13s} {'obs/bound':>10s} {'holds':>6s}",
            "-" * 64,
        ]
        for r in rows:
            out.append(
                f"{r.conn_id:8s} {r.analytic_bound * MS_PER_S:10.3f} "
                f"{r.observed_max * MS_PER_S:12.3f} {r.observed_mean * MS_PER_S:13.3f} "
                f"{r.tightness:10.3f} {str(r.holds):>6s}"
            )
        all_hold &= all(r.holds for r in rows)
    out.append("")
    out.append(f"All bounds dominate observed delays: {all_hold}")
    return "\n".join(out)

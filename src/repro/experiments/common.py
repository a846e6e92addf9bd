"""Shared experiment plumbing: settings, series containers, table printing."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import NetworkConfig, SimulationConfig
from repro.scenario.spec import AnalysisKnobs, ArrivalsSpec, ScenarioSpec

#: Offered-load calibration used by default (see SimulationConfig.load_scale
#: and EXPERIMENTS.md): one scalar fitted so that AP(U=0.3, beta=0.5) lands
#: near the paper's level, then held fixed for every experiment point.
CALIBRATED_LOAD_SCALE = 0.15


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Run-size and calibration knobs shared by all experiments."""

    n_requests: int = 300
    warmup_requests: int = 30
    seeds: Tuple[int, ...] = (1, 2, 3)
    calibrate_load: bool = True
    network: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)

    def simulation_config(self) -> SimulationConfig:
        scale = CALIBRATED_LOAD_SCALE if self.calibrate_load else 1.0
        return SimulationConfig(load_scale=scale)

    def scenario(
        self,
        utilization: float,
        beta: float,
        seed: int,
        name: Optional[str] = None,
    ) -> ScenarioSpec:
        """The :class:`ScenarioSpec` of one sweep point ``(U, beta, seed)``.

        Every sweep except E4 (whose policy objects are not spec fields)
        builds its grid through this producer and runs it via
        :func:`repro.scenario.loader.connection_sim_config`.
        """
        scale = CALIBRATED_LOAD_SCALE if self.calibrate_load else 1.0
        return ScenarioSpec(
            name=name or f"U{utilization:g}-beta{beta:g}-seed{seed}",
            topology=self.network,
            cac=AnalysisKnobs(beta=beta),
            arrivals=ArrivalsSpec(
                utilization=utilization,
                seed=seed,
                n_requests=self.n_requests,
                warmup_requests=self.warmup_requests,
                load_scale=scale,
            ),
        )

    @staticmethod
    def quick() -> "ExperimentSettings":
        """A fast-but-noisy configuration for smoke runs and benches."""
        return ExperimentSettings(n_requests=100, warmup_requests=10, seeds=(1,))


@dataclasses.dataclass
class SeriesResult:
    """One plotted series: a label and (x, y) points with per-point spread."""

    label: str
    xs: List[float] = dataclasses.field(default_factory=list)
    ys: List[float] = dataclasses.field(default_factory=list)
    spreads: List[float] = dataclasses.field(default_factory=list)

    def add(self, x: float, y: float, spread: float = 0.0) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self.spreads.append(spread)


def mean_and_spread(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and half-range across seeds."""
    if not values:
        return float("nan"), 0.0
    m = sum(values) / len(values)
    return m, (max(values) - min(values)) / 2.0


def format_table(
    x_label: str, series: Sequence[SeriesResult], x_format: str = "{:.2f}"
) -> str:
    """Render series as an aligned text table (one row per x value)."""
    xs = sorted({x for s in series for x in s.xs})
    header = [x_label] + [s.label for s in series]
    rows: List[List[str]] = [header]
    lookup: Dict[Tuple[str, float], Tuple[float, float]] = {}
    for s in series:
        for x, y, sp in zip(s.xs, s.ys, s.spreads):
            lookup[(s.label, x)] = (y, sp)
    for x in xs:
        row = [x_format.format(x)]
        for s in series:
            if (s.label, x) in lookup:
                y, sp = lookup[(s.label, x)]
                row.append(f"{y:.3f}" + (f" ±{sp:.3f}" if sp > 0 else ""))
            else:
                row.append("-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)

"""The unified scenario spec: one declarative object, every engine.

A :class:`ScenarioSpec` describes everything a run needs — topology,
workload (stochastic arrivals and/or an explicit connection list), fault
schedule, and policy/analysis knobs — as one frozen, serializable value.
The analytic CAC, the connection-level simulator and the packet-level
simulator all consume it through :mod:`repro.scenario.loader`, so a spec
is a complete, reproducible description of a run: the experiments build
specs, the fuzzer generates them, and a failing spec round-trips through
JSON (:mod:`repro.scenario.codec`) as a one-file reproducer.

Design rules:

* every field is a plain value or a frozen dataclass — specs hash, pickle
  and compare structurally;
* reuse the existing validated config types (:class:`~repro.config.NetworkConfig`,
  :class:`~repro.traffic.generators.WorkloadSpec`,
  :class:`~repro.faults.injector.FaultConfig`, …) rather than mirroring
  their fields, so a spec can never describe a network the builders would
  reject;
* validation happens at construction (``__post_init__``), not at load
  time — an unbuildable spec fails before it is ever written to disk.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from repro.config import NetworkConfig, SimulationConfig
from repro.errors import ScenarioSpecError, TopologyError
from repro.faults.injector import FaultConfig, FaultScript, ScriptedFault
from repro.faults.retry import RetryPolicy
from repro.network.connection import ConnectionSpec
from repro.topo.spec import TopologySpec
from repro.traffic.generators import WorkloadSpec

#: Current on-disk format version (bumped on incompatible codec changes).
FORMAT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class AnalysisKnobs:
    """Policy/analysis knobs of the CAC (the spec's "how to decide" part)."""

    #: The allocation interpolation parameter of Eqs. 35/36.
    beta: float = 0.5
    #: Interference-partition incremental analysis (bit-identical to the
    #: full recomputation; the differential checker verifies exactly that).
    incremental: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise ScenarioSpecError("beta must be in [0, 1]")


@dataclasses.dataclass(frozen=True)
class ArrivalsSpec:
    """Stochastic workload for the connection-level simulator.

    Mirrors the paper's evaluation harness: Poisson requests at the rate
    implied by ``utilization``, dual-periodic sources drawn from
    ``workload``, exponential lifetimes.
    """

    utilization: float
    seed: int = 1
    n_requests: int = 100
    warmup_requests: int = 10
    workload: WorkloadSpec = dataclasses.field(
        default_factory=lambda: SimulationConfig().workload
    )
    mean_lifetime: float = 600.0
    load_scale: float = 1.0
    count_host_blocked: bool = False

    def __post_init__(self) -> None:
        if self.utilization <= 0:
            raise ScenarioSpecError("utilization must be positive")
        if self.n_requests < 1:
            raise ScenarioSpecError("need at least one request")
        if not (0 <= self.warmup_requests <= self.n_requests):
            raise ScenarioSpecError(
                "warmup_requests must be in [0, n_requests]"
            )
        if self.mean_lifetime <= 0 or self.load_scale <= 0:
            raise ScenarioSpecError(
                "mean_lifetime and load_scale must be positive"
            )

    def simulation_config(self) -> SimulationConfig:
        """The equivalent :class:`~repro.config.SimulationConfig`."""
        return SimulationConfig(
            mean_lifetime=self.mean_lifetime,
            workload=self.workload,
            count_host_blocked=self.count_host_blocked,
            load_scale=self.load_scale,
        )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Fault schedule: stochastic processes, scripted events, retry knobs."""

    #: Stochastic MTBF/MTTR renewal processes (None = no stochastic faults).
    config: Optional[FaultConfig] = None
    #: Deterministic scripted events, sorted by time.
    script: Tuple[ScriptedFault, ...] = ()
    #: Backoff schedule for re-admitting displaced connections.
    retry: Optional[RetryPolicy] = None

    @property
    def any_enabled(self) -> bool:
        return bool(self.script) or (
            self.config is not None and self.config.any_enabled
        )

    def fault_script(self) -> Optional[FaultScript]:
        """The :class:`~repro.faults.injector.FaultScript`, or None."""
        if not self.script:
            return None
        return FaultScript(list(self.script))


@dataclasses.dataclass(frozen=True)
class PacketRunSpec:
    """Packet-level validation run over the admitted connection set."""

    #: Greedy worst-case sources are injected over this horizon, seconds.
    duration: float = 0.3
    #: Assume a worst-phase token on ring wake-up (tighter bound stress).
    adversarial_phase: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError("packet duration must be positive")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: topology + workload + faults + knobs.

    A spec must offer load in at least one of two forms:

    * ``arrivals`` — the stochastic connection-request process driven
      through :class:`~repro.sim.connection_sim.ConnectionSimulator`;
    * ``connections`` — an explicit list of
      :class:`~repro.network.connection.ConnectionSpec` requests admitted
      through the CAC in order (rejections are recorded, not fatal).

    When both are present the explicit connections are admitted first and
    the stochastic workload churns on top of them.
    """

    name: str
    topology: NetworkConfig = dataclasses.field(default_factory=NetworkConfig)
    #: Declarative structural topology (:mod:`repro.topo`).  ``None`` runs
    #: the reference pairwise mesh built from ``topology``; when set, the
    #: spec is lowered via ``topo.build(topology)`` (``topology`` then
    #: supplies only the shared default parameters — rates, latencies,
    #: TTRT — not the shape) and offered load is calibrated against the
    #: built network's aggregate backbone capacity.
    topo: Optional[TopologySpec] = None
    cac: AnalysisKnobs = dataclasses.field(default_factory=AnalysisKnobs)
    arrivals: Optional[ArrivalsSpec] = None
    connections: Tuple[ConnectionSpec, ...] = ()
    faults: Optional[FaultPlan] = None
    packet: PacketRunSpec = dataclasses.field(default_factory=PacketRunSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioSpecError("scenario name must be non-empty")
        if self.topo is not None:
            try:
                self.topo.validate()
            except TopologyError as exc:
                raise ScenarioSpecError(f"topo: {exc}") from None
        if self.arrivals is None and not self.connections:
            raise ScenarioSpecError(
                "a scenario needs arrivals, connections, or both"
            )
        seen = set()
        for entry in self.connections:
            if entry.conn_id in seen:
                raise ScenarioSpecError(
                    f"duplicate connection id {entry.conn_id!r}"
                )
            seen.add(entry.conn_id)
        if self.faults is not None and self.faults.any_enabled:
            if self.arrivals is None:
                raise ScenarioSpecError(
                    "fault schedules need a stochastic workload (the "
                    "connection-level simulator owns the event loop)"
                )
            if self.connections:
                raise ScenarioSpecError(
                    "fault schedules cannot displace pinned explicit "
                    "connections; describe faulted load via arrivals only"
                )

    def with_connections(
        self, connections: Sequence[ConnectionSpec]
    ) -> "ScenarioSpec":
        """A copy with a different explicit connection list (shrinker)."""
        return dataclasses.replace(self, connections=tuple(connections))

"""Validated configuration objects and the paper's reference parameters.

The paper specifies: 3 FDDI rings of 4 hosts each, 3 interface devices,
3 ATM switches, 155 Mbps backbone links, Poisson connection requests,
exponentially distributed lifetimes, dual-periodic sources, and routes that
always cross the backbone.  It does not publish TTRT, deadlines, traffic
magnitudes or device latencies; the defaults below are documented choices
of the same order as contemporaneous FDDI/ATM literature (see DESIGN.md §3)
and every one of them is overridable.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.fddi.timed_token import MAX_FRAME_BITS
from repro.network.topology import NetworkTopology
from repro.traffic.generators import WorkloadSpec
from repro.units import MBIT, MS, US


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of the FDDI-ATM-FDDI network."""

    n_rings: int = 3
    hosts_per_ring: int = 4

    # --- FDDI side -----------------------------------------------------
    fddi_bandwidth: float = 100 * MBIT
    ttrt: float = 8 * MS
    #: Per-rotation protocol overhead Delta (token, preambles, latency).
    ring_overhead: float = 80 * US
    #: Worst-case bit propagation between stations (the Delay_Line bound).
    ring_propagation: float = 50 * US
    #: Station MAC transmit buffer, bits.
    mac_buffer_bits: float = 4 * MBIT

    # --- ATM side --------------------------------------------------------
    atm_link_rate: float = 155.52 * MBIT
    link_propagation: float = 10 * US
    switch_fabric_delay: float = 10 * US
    port_latency: float = 3 * US
    port_buffer_bits: float = math.inf

    # --- Interface devices ----------------------------------------------
    id_input_port_delay: float = 10 * US
    id_frame_switch_delay: float = 10 * US
    id_frame_processing_delay: float = 20 * US

    #: Maximum FDDI frame payload, bits (caps F_S = H * BW).
    max_frame_bits: float = float(MAX_FRAME_BITS)

    def __post_init__(self) -> None:
        if self.n_rings < 1 or self.hosts_per_ring < 1:
            raise ConfigurationError("need at least one ring and one host")
        if self.ttrt <= 0 or self.fddi_bandwidth <= 0 or self.atm_link_rate <= 0:
            raise ConfigurationError("rates and TTRT must be positive")
        if not (0 <= self.ring_overhead < self.ttrt):
            raise ConfigurationError("ring overhead must be in [0, TTRT)")


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the delay-analysis engine."""

    #: Time span over which source envelopes are computed exactly, seconds.
    envelope_horizon: float = 0.5
    #: Breakpoint budget per envelope between stages (coarsening keeps the
    #: analysis conservative; see Curve.coarsen).
    max_envelope_segments: int = 96
    #: Port delays are rounded *up* to this quantum before being used to
    #: advance output envelopes (the reported delay bound itself stays
    #: exact).  Rounding up keeps envelopes conservative and makes them
    #: identical across nearby binary-search probes — a large cache win.
    output_delay_quantum: float = 1e-4
    #: Cap on the cyclic fixed-point iteration (see repro.core.delay):
    #: cyclic port-dependency graphs are solved by iterating the monotone
    #: per-port shift map until the quantized shift vector repeats
    #: exactly; exceeding this cap raises FixedPointDivergenceError
    #: (treated as instability, i.e. automatic CAC rejection).
    fixed_point_max_iterations: int = 100
    #: **Test-only.**  Route every analysis through the fixed-point
    #: solver, even on feed-forward topologies, so equivalence with the
    #: chain analysis can be asserted bit-for-bit.
    force_fixed_point: bool = False

    def __post_init__(self) -> None:
        if self.envelope_horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.max_envelope_segments < 8:
            raise ConfigurationError("need at least 8 envelope segments")
        if self.output_delay_quantum < 0:
            raise ConfigurationError("delay quantum must be non-negative")
        if self.fixed_point_max_iterations < 1:
            raise ConfigurationError("fixed_point_max_iterations must be >= 1")


@dataclasses.dataclass(frozen=True)
class CACConfig:
    """Parameters of the CAC algorithm of Section 5.3."""

    #: The allocation interpolation parameter of Eqs. 35/36.
    beta: float = 0.5
    #: Binary searches stop when the H interval shrinks below this fraction
    #: of the feasible segment's length.
    search_tolerance: float = 0.01
    #: Two delay values count as "equal" for the H^max_need search (Eqs.
    #: 31/32) when they differ by less than this relative amount.
    delay_equality_rtol: float = 1e-3
    #: Search along the ray through the origin (Rule 2 literally) instead of
    #: the segment from the min_abs point (Step 3 literally).  See DESIGN.md.
    use_origin_ray: bool = False
    #: Reuse previous fixed-point reports for connections whose shared-port
    #: inputs a probe cannot change (interference-partition analysis; see
    #: repro.core.incremental).  Bit-identical to the full recomputation —
    #: disable only to benchmark against it or to debug the engine.
    incremental: bool = True
    analysis: AnalysisConfig = dataclasses.field(default_factory=AnalysisConfig)

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigurationError("beta must be in [0, 1]")
        if not (0.0 < self.search_tolerance < 0.5):
            raise ConfigurationError("search tolerance must be in (0, 0.5)")
        if self.delay_equality_rtol <= 0:
            raise ConfigurationError("delay equality tolerance must be positive")


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the standing admission-control service (:mod:`repro.service`).

    The service wraps the CAC behind a bounded, priority-aware request
    queue, journals every decision to a write-ahead log, and freezes
    admission when measured decision latency climbs.  All thresholds are in
    wall-clock seconds of *decision latency*, not simulated time.
    """

    #: Bounded admission-queue capacity.  When full, low-priority admit
    #: requests are shed with ``BUSY`` verdicts (releases always pass —
    #: they free resources and shrink the backlog).
    queue_capacity: int = 256
    #: Default per-request service deadline, seconds: a request that waits
    #: or computes past this is answered ``TIMEOUT`` (and an admission that
    #: completed too late is rolled back before the verdict is returned).
    default_timeout: float = 30.0
    #: Journal records between admission-state snapshots (0 = never).
    snapshot_every: int = 1000
    #: fsync the journal after every record (survives OS crash, not just
    #: process death; costs one fsync per decision).
    fsync: bool = False
    # --- degradation ladder ------------------------------------------
    #: EWMA window (in decisions) of the decision-latency estimate.
    latency_window: int = 8
    #: Freeze admissions when the EWMA latency exceeds this, seconds.
    degrade_hi: float = 0.5
    #: Thaw when the EWMA falls below this, seconds (hysteresis: must be
    #: < ``degrade_hi``).
    degrade_lo: float = 0.2
    #: Decisions a rung must dwell before it may transition again (keeps
    #: the ladder from flapping).
    min_dwell: int = 16
    #: While FROZEN, every Nth shed admit is decided anyway as a thaw
    #: probe, so the ladder can observe latency and step back down.
    freeze_probe_every: int = 8
    # --- backpressure retry hints ------------------------------------
    #: Base/factor/cap of the exponential ``retry_after`` hint attached to
    #: ``BUSY``/``TIMEOUT`` verdicts (see ``RetryPolicy``), seconds.
    retry_base_delay: float = 0.05
    retry_factor: float = 2.0
    retry_max_delay: float = 5.0
    #: Master seed of the service's backoff-jitter substreams (one
    #: substream per connection id -> deterministic retry schedules).
    seed: int = 1

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if self.default_timeout <= 0:
            raise ConfigurationError("default timeout must be positive")
        if self.snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be non-negative")
        if self.latency_window < 1:
            raise ConfigurationError("latency window must be >= 1")
        if not (0.0 < self.degrade_lo < self.degrade_hi):
            raise ConfigurationError(
                "need 0 < degrade_lo < degrade_hi for hysteresis"
            )
        if self.min_dwell < 1:
            raise ConfigurationError("min_dwell must be >= 1")
        if self.freeze_probe_every < 1:
            raise ConfigurationError("freeze_probe_every must be >= 1")
        if self.retry_base_delay <= 0 or self.retry_max_delay <= 0:
            raise ConfigurationError("retry delays must be positive")
        if self.retry_factor < 1.0:
            raise ConfigurationError("retry factor must be >= 1")


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Workload of the paper's evaluation (Section 6)."""

    #: Mean connection lifetime 1/mu, seconds.
    mean_lifetime: float = 600.0
    #: Dual-periodic source defaults: C1/P1 = 8 Mbps with 1.5x inner bursts.
    #: Deadlines are chosen tight enough that the minimum-needed allocation
    #: is deadline-constrained (not merely stability-constrained) — the
    #: regime in which the paper's beta trade-off is visible.
    workload: WorkloadSpec = dataclasses.field(
        default_factory=lambda: WorkloadSpec(
            c1=120_000.0,   # 120 kbit per 15 ms  -> rho = 8 Mbps
            p1=0.015,
            c2=60_000.0,    # 60 kbit per 5 ms    -> inner rate 12 Mbps
            p2=0.005,
            deadline_min=0.040,
            deadline_max=0.100,
            jitter=0.2,
        )
    )
    #: Count requests that find no inactive source host as rejections.
    count_host_blocked: bool = False
    #: Offered-load calibration: the paper's traffic constants are not
    #: published, and with our documented workload the network's carrying
    #: capacity corresponds to a lower backbone utilization than theirs.
    #: ``load_scale`` multiplies the arrival rate derived from U so that the
    #: AP *levels* can be aligned with Figures 7/8 (one scalar, fitted once,
    #: held fixed across every experiment point); ``1.0`` uses the paper's
    #: formula verbatim.  See EXPERIMENTS.md.
    load_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if self.load_scale <= 0:
            raise ConfigurationError("load scale must be positive")

    def arrival_rate_for_utilization(
        self,
        utilization: float,
        network: Optional[NetworkConfig],
        backbone_capacity: Optional[float] = None,
    ) -> float:
        """Invert the paper's load formula ``U = (lambda / (3 mu)) * rho / C``.

        ``rho`` is the workload's mean long-term rate and ``C`` the backbone
        link capacity; the 3 is the paper's three backbone links.  The
        pairwise mesh has ``n (n - 1) / 2`` bidirectional backbone links
        (3 exactly for the paper's triangle; earlier revisions miscounted
        this as ``n``, so 2- and 4-ring scenarios calibrated offered load
        against the wrong capacity — see EXPERIMENTS.md).  Topologies that
        are not pairwise meshes pass their aggregate backbone capacity in
        ``backbone_capacity`` (see ``NetworkTopology.backbone_capacity``),
        which replaces ``n_links * C`` outright.
        """
        if not (0.0 < utilization):
            raise ConfigurationError("utilization must be positive")
        rho = self.workload.mean_rate
        mu = 1.0 / self.mean_lifetime
        if backbone_capacity is not None:
            if backbone_capacity <= 0:
                raise ConfigurationError("backbone capacity must be positive")
            return utilization * mu * backbone_capacity / rho * self.load_scale
        if network is None:
            network = NetworkConfig()
        n_links = max(1, network.n_rings * (network.n_rings - 1) // 2)
        rate = utilization * n_links * mu * network.atm_link_rate / rho
        return rate * self.load_scale


def build_network(config: Optional[NetworkConfig] = None) -> NetworkTopology:
    """Construct the paper's topology (Figure 1 instantiated for Section 6).

    The reference pairwise mesh of :func:`repro.topo.generators.paper_triangle`
    lowered through :meth:`repro.topo.spec.TopologySpec.build`: ``n_rings``
    rings named ``ring1..ringN`` with hosts ``host<i>-<j>``, one interface
    device ``id<i>`` per ring attached to switch ``s<i>``, and backbone
    switches connected pairwise (a triangle for N=3 — every inter-ring
    route crosses exactly one inter-switch link).
    """
    # Local import: repro.topo.spec imports NetworkConfig from this module.
    from repro.topo.generators import paper_triangle

    cfg = config if config is not None else NetworkConfig()
    return paper_triangle(cfg.n_rings, cfg.hosts_per_ring).build(cfg)

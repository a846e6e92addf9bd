"""Concatenation ("pay bursts only once") end-to-end analysis.

The paper bounds the end-to-end delay by *summing* per-server worst-case
delays (Eq. 7).  Network calculus offers an alternative: lower-bound every
server by a rate-latency service curve, min-plus *convolve* the curves
along the route (rate-latency curves convolve in closed form: minimum rate,
summed latencies), and take one horizontal deviation of the source envelope
against the concatenated curve.  The source burst is then "paid" once
instead of at every hop.

Both are valid upper bounds; which is tighter depends on the route.
``tests/core/test_concatenation.py`` compares them on the paper's
network — an analysis the original authors could not run (the technique
was contemporaneous), and a natural "future work" item.

Per-stage rate-latency minorants used here (all standard):

* FDDI/802.5 MAC with allocation ``H``:  rate ``H * BW / TTRT``, latency
  ``2 * TTRT`` (the timed-token staircase dominates this line);
* constant-delay stage ``d``: pure latency ``d`` (infinite rate);
* FIFO output port with cross traffic: leftover rate ``C - rho_cross``,
  latency ``(sigma_cross / (C - rho_cross)) + port_latency`` where
  ``(sigma, rho)`` is the cross aggregate's token-bucket majorant;
* frame/cell converters: latency = processing time; the cell-padding
  expansion is charged once by inflating the *source envelope* to cell
  units up front (conservative).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence

from repro.config import AnalysisConfig, NetworkConfig
from repro.core.delay import (
    ConnectionLoad,
    DelayAnalyzer,
    SharedStage,
)
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import (
    horizontal_deviation,
    token_bucket_majorant,
)
from repro.errors import UnstableSystemError
from repro.fddi.mac_server import FDDIMacServer
from repro.interface_device.cell_frame import CellFrameConversionServer
from repro.interface_device.frame_cell import FrameCellConversionServer
from repro.network.topology import NetworkTopology
from repro.servers.constant import ConstantDelayServer


@dataclasses.dataclass(frozen=True)
class RateLatency:
    """A rate-latency service curve ``R * (t - T)+`` (R may be infinite)."""

    rate: float
    latency: float

    def convolve(self, other: "RateLatency") -> "RateLatency":
        """Min-plus convolution: minimum rate, summed latencies."""
        return RateLatency(
            rate=min(self.rate, other.rate),
            latency=self.latency + other.latency,
        )

    def to_curve(self, horizon_rate_cap: float = 1e12) -> Curve:
        rate = min(self.rate, horizon_rate_cap)
        return Curve.rate_latency(rate, self.latency)


@dataclasses.dataclass(frozen=True)
class ConcatenationReport:
    """Both bounds for one connection."""

    conn_id: str
    additive_bound: float
    concatenated_bound: float
    end_to_end_rate: float
    end_to_end_latency: float

    @property
    def improvement(self) -> float:
        """additive / concatenated (> 1 when concatenation is tighter)."""
        if self.concatenated_bound <= 0:
            return math.inf
        return self.additive_bound / self.concatenated_bound


class ConcatenationAnalyzer:
    """Computes the concatenated end-to-end bound next to the additive one."""

    def __init__(
        self,
        topology: NetworkTopology,
        network_config: Optional[NetworkConfig] = None,
        analysis_config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.topology = topology
        self.network_config = network_config or NetworkConfig()
        self.analysis = analysis_config or AnalysisConfig()
        self.delay_analyzer = DelayAnalyzer(
            topology, self.network_config, self.analysis
        )

    # ------------------------------------------------------------------

    def _stage_service(
        self,
        stage,
        conn_id: str,
        port_inputs: Dict[str, Dict[str, Curve]],
    ) -> RateLatency:
        if isinstance(stage, SharedStage):
            port = stage.port
            inputs = port_inputs.get(port.name, {})
            cross = [env for cid, env in inputs.items() if cid != conn_id]
            if cross:
                sigma, rho = token_bucket_majorant(sum_curves(cross))
            else:
                sigma, rho = 0.0, 0.0
            leftover = port.service_rate - rho
            if leftover <= 0:
                raise UnstableSystemError(
                    f"{port.name}: cross traffic saturates the link"
                )
            return RateLatency(
                rate=leftover,
                latency=sigma / leftover + port.port_latency,
            )
        server = stage.server
        if isinstance(server, FDDIMacServer):
            if server.guaranteed_rate <= 0:
                raise UnstableSystemError(f"{server.name}: zero allocation")
            return RateLatency(
                rate=server.guaranteed_rate, latency=2.0 * server.ttrt
            )
        if isinstance(server, ConstantDelayServer):
            return RateLatency(rate=math.inf, latency=server.delay)
        if isinstance(server, (FrameCellConversionServer, CellFrameConversionServer)):
            return RateLatency(rate=math.inf, latency=server.processing_delay)
        from repro.servers.regulator import RegulatorServer

        if isinstance(server, RegulatorServer):
            # A greedy shaper guarantees its own shaping curve as service;
            # the rate-latency minorant of sigma + rho*t is (rho, 0).
            return RateLatency(rate=server.rho, latency=0.0)
        # Unknown dedicated stage: fall back to its standalone delay bound
        # as a pure latency (valid: the stage delays by at most that much).
        raise UnstableSystemError(
            f"concatenation analysis has no service model for {stage.name}"
        )

    def _expanded_envelope(self, load: ConnectionLoad) -> Curve:
        """Source envelope inflated to cell-payload units (conservative)."""
        base = self.delay_analyzer.source_envelope(load.spec)
        if not load.route.crosses_backbone:
            return base
        frame_bits = self.delay_analyzer.frame_bits_for(load.h_source)
        from repro.atm.cell import CELL_PAYLOAD_BITS, cells_for_frame

        per_frame_out = cells_for_frame(frame_bits) * CELL_PAYLOAD_BITS
        factor = per_frame_out / frame_bits
        return base * factor + per_frame_out

    def analyze(
        self, loads: Sequence[ConnectionLoad]
    ) -> Dict[str, ConcatenationReport]:
        """Both bounds for every connection in ``loads``."""
        reports, usage = self.delay_analyzer.compute_with_resources(loads)
        results: Dict[str, ConcatenationReport] = {}
        for load in loads:
            conn_id = load.spec.conn_id
            stages = self.delay_analyzer.build_stages(load)
            service = RateLatency(rate=math.inf, latency=0.0)
            for stage in stages:
                service = service.convolve(
                    self._stage_service(stage, conn_id, usage.port_inputs)
                )
            envelope = self._expanded_envelope(load)
            if envelope.final_slope > service.rate * (1 + 1e-12):
                raise UnstableSystemError(
                    f"{conn_id}: source rate exceeds the concatenated "
                    f"service rate {service.rate:.6g} b/s"
                )
            bound = horizontal_deviation(envelope, service.to_curve())
            results[conn_id] = ConcatenationReport(
                conn_id=conn_id,
                additive_bound=reports[conn_id].total_delay,
                concatenated_bound=bound,
                end_to_end_rate=service.rate,
                end_to_end_latency=service.latency,
            )
        return results

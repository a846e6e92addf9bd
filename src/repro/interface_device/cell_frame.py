"""Cell -> frame reassembly: the mirror of Theorem 2 at the receiving ID.

Cells arriving from the ATM backbone are reassembled into FDDI frames.  The
delay decomposition measures each compound server's delay at the *last bit*
(Fig. 3), so reassembly itself contributes only the constant per-frame
processing time; the envelope is re-quantized from cell payload bits back
to frame bits (removing the padding the converter added):

    ``A'(I) = ceil(A(I) / (F_C * C_S)) * F_S``
"""

from __future__ import annotations

from repro.atm.cell import CELL_PAYLOAD_BITS, cells_for_frame
from repro.envelopes.curve import Curve
from repro.envelopes.staircase import ceiling_quantize
from repro.errors import ConfigurationError
from repro.servers.base import DedicatedServer, ServerAnalysis


class CellFrameConversionServer(DedicatedServer):
    """Reassembles ATM cells into FDDI frames of ``frame_bits`` payload."""

    def __init__(
        self,
        frame_bits: float,
        processing_delay: float = 0.0,
        horizon: float = 1.0,
        name: str = "cell-frame",
    ) -> None:
        if frame_bits <= 0:
            raise ConfigurationError("frame size must be positive")
        if processing_delay < 0:
            raise ConfigurationError("processing delay must be non-negative")
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        self.frame_bits = float(frame_bits)
        self.processing_delay = float(processing_delay)
        self.horizon = float(horizon)
        self.name = name

    @property
    def bits_in_per_frame(self) -> float:
        """Cell payload bits that carry one frame (``F_C * C_S``)."""
        return cells_for_frame(self.frame_bits) * CELL_PAYLOAD_BITS

    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        t_max = max(self.horizon, float(arrival.last_breakpoint))
        output = ceiling_quantize(
            arrival,
            quantum_in=self.bits_in_per_frame,
            quantum_out=self.frame_bits,
            t_max=t_max,
        )
        return ServerAnalysis(
            delay_bound=self.processing_delay,
            output=output,
            backlog_bound=self.bits_in_per_frame,  # one frame being rebuilt
            busy_interval=0.0,
        )

    def cache_key(self):
        return ("cell-frame", self.frame_bits, self.processing_delay, self.horizon)

    def __repr__(self) -> str:
        return f"CellFrameConversionServer(F_S={self.frame_bits:.6g}b)"

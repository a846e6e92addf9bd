"""Frame -> cell conversion: Theorem 2 of the paper.

The converter segments each incoming FDDI frame (``F_S`` payload bits) into
``F_C = ceil(F_S / C_S)`` ATM cells of ``C_S`` payload bits each, padding
the last cell.  Because the ATM side is faster than the FDDI side, a frame
is fully converted before the next one arrives: the stage contributes only
its (constant) maximum processing time, and reshapes the envelope by
ceiling quantization:

    ``Gamma'(I) = ceil(I * Gamma(I) / F_S) * F_C * C_S / I``   (Eq. 21)
"""

from __future__ import annotations

from repro.atm.cell import CELL_PAYLOAD_BITS, cells_for_frame
from repro.envelopes.curve import Curve
from repro.envelopes.staircase import ceiling_quantize
from repro.errors import ConfigurationError
from repro.servers.base import DedicatedServer, ServerAnalysis


class FrameCellConversionServer(DedicatedServer):
    """Theorem-2 conversion of FDDI frames into ATM cells.

    Parameters
    ----------
    frame_bits:
        ``F_S`` — the frame payload size in bits.  In the paper this is the
        sender's synchronous transmission budget per rotation
        (``F_S = H * BW_FDDI``), capped by the FDDI maximum frame size.
    processing_delay:
        Maximum time to segment one frame (Eq. 22), seconds.
    horizon:
        Time span over which the quantized envelope is computed exactly;
        beyond it a conservative affine majorant continues the curve.
    """

    def __init__(
        self,
        frame_bits: float,
        processing_delay: float = 0.0,
        horizon: float = 1.0,
        name: str = "frame-cell",
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
    def cells_per_frame(self) -> int:
        """``F_C`` of Eq. 21."""
        return cells_for_frame(self.frame_bits)

    @property
    def bits_out_per_frame(self) -> float:
        """``F_C * C_S`` — payload bits emitted per frame (with padding)."""
        return self.cells_per_frame * CELL_PAYLOAD_BITS

    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        t_max = max(self.horizon, float(arrival.last_breakpoint))
        output = ceiling_quantize(
            arrival,
            quantum_in=self.frame_bits,
            quantum_out=self.bits_out_per_frame,
            t_max=t_max,
        )
        return ServerAnalysis(
            delay_bound=self.processing_delay,
            output=output,
            backlog_bound=self.frame_bits,  # at most one frame in flight
            busy_interval=0.0,
        )

    def cache_key(self):
        return ("frame-cell", self.frame_bits, self.processing_delay, self.horizon)

    def __repr__(self) -> str:
        return (
            f"FrameCellConversionServer(F_S={self.frame_bits:.6g}b, "
            f"F_C={self.cells_per_frame})"
        )

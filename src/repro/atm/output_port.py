"""The FIFO output-port server: the shared multiplexer of the ATM fabric.

An output port queues the cells of every connection routed over its link
and transmits them FIFO at the link rate.  For a *tagged* connection with
envelope ``A_tag`` sharing the port with cross-traffic ``A_1..A_n``
(envelopes taken at the port's entrance), the classical busy-period results
used by refs [2, 14] give:

* worst-case delay = port latency + horizontal deviation between the
  *aggregate* envelope and the link service curve;
* worst-case backlog = vertical deviation of the aggregate;
* the tagged connection's output envelope = its input envelope advanced by
  the delay bound, capped by the link rate (a FIFO server cannot reorder,
  so a bit leaving at ``t`` entered within the last ``d`` seconds).

Envelopes count cell-payload bits; the service rate is the link's payload
rate (wire rate scaled by 48/53).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.atm.link import AtmLink
from repro.envelopes.curve import Curve, sum_curves
from repro.envelopes.operations import rate_latency_bounds
from repro.errors import BufferOverflowError, ConfigurationError, UnstableSystemError
from repro.servers.base import ServerAnalysis


class OutputPortServer:
    """FIFO multiplexer onto one ATM link.

    Parameters
    ----------
    link:
        The outgoing :class:`AtmLink` (provides the service rate).
    port_latency:
        Fixed per-cell processing latency at the port, seconds.
    buffer_bits:
        Port buffer in payload bits (``inf`` = unbounded).  Overflow means
        cell loss — infinite delay for a hard real-time connection — so it
        raises :class:`BufferOverflowError`.
    """

    def __init__(
        self,
        link: AtmLink,
        port_latency: float = 0.0,
        buffer_bits: float = math.inf,
        name: str = None,
    ) -> None:
        if port_latency < 0:
            raise ConfigurationError("port latency must be non-negative")
        if buffer_bits <= 0:
            raise ConfigurationError("buffer must be positive (or inf)")
        self.link = link
        self.port_latency = float(port_latency)
        self.buffer_bits = float(buffer_bits)
        self.name = name if name is not None else f"port:{link.link_id}"

    @property
    def service_rate(self) -> float:
        """Payload service rate of the outgoing link (bits/second)."""
        return self.link.payload_rate

    def analyze_aggregate(self, aggregate: Curve) -> Tuple[float, float, float]:
        """Busy-period FIFO bounds of the aggregate arrival ``aggregate``.

        Returns ``(delay, backlog, busy_interval)``: the horizontal
        deviation of ``aggregate`` from the port's rate-latency service
        curve ``R * (t - port_latency)+`` within the busy interval, and
        the vertical deviation, from
        :func:`~repro.envelopes.operations.rate_latency_bounds`.  The one
        FIFO port analysis: :meth:`analyze_tagged` and the delay engine's
        shared stages both call it.

        Raises
        ------
        UnstableSystemError
            If the aggregate long-term rate exceeds the link payload rate,
            or the busy period or delay is unbounded.
        BufferOverflowError
            If the worst-case aggregate backlog exceeds the port buffer.
        """
        # The 1e-12 relative slack lets an aggregate up to that much over
        # the link rate reach the kernel; an endless busy period still
        # rejects it below.
        if aggregate.final_slope > self.service_rate * (1 + 1e-12):
            raise UnstableSystemError(
                f"{self.name}: aggregate rate {aggregate.final_slope:.6g} b/s "
                f"exceeds link payload rate {self.service_rate:.6g} b/s"
            )
        busy, backlog, delay = rate_latency_bounds(
            aggregate, self.service_rate, self.port_latency
        )
        if math.isinf(busy):
            raise UnstableSystemError(f"{self.name}: unbounded busy period")
        # The 1e-9 bit slack admits up to 1e-9 bits of overflow.
        if backlog > self.buffer_bits + 1e-9:
            raise BufferOverflowError(
                f"{self.name}: worst-case backlog {backlog:.6g} bits exceeds "
                f"buffer {self.buffer_bits:.6g} bits"
            )
        if math.isinf(delay):
            raise UnstableSystemError(f"{self.name}: unbounded delay")
        return delay, backlog, busy

    def analyze_tagged(
        self, tagged: Curve, cross: Sequence[Curve]
    ) -> ServerAnalysis:
        """Busy-period FIFO analysis for the tagged connection.

        Raises what :meth:`analyze_aggregate` raises for the aggregate of
        ``tagged`` and ``cross``.
        """
        delay, backlog, busy = self.analyze_aggregate(sum_curves([tagged, *cross]))
        # FIFO output bound: the tagged envelope advanced by the delay bound,
        # capped at the link payload rate (cells leave serialized).
        output = tagged.shift_left(delay).cap(self.service_rate)
        return ServerAnalysis(
            delay_bound=delay,
            output=output,
            backlog_bound=backlog,
            busy_interval=busy,
        )

    def __repr__(self) -> str:
        return f"OutputPortServer({self.name!r}, rate={self.link.rate:.4g} b/s)"

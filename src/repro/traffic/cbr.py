"""Constant-bit-rate traffic with optional packetization."""

from __future__ import annotations

import dataclasses
import math

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError
from repro.traffic.descriptor import TrafficDescriptor


@dataclasses.dataclass(frozen=True)
class CBRTraffic(TrafficDescriptor):
    """A constant-rate source of ``rate`` bits/second.

    With ``packet_bits > 0`` the stream is packetized: bits appear in whole
    packets, so any window can contain one extra packet's worth compared to
    the fluid rate line (``A(I) = rate * I + packet_bits``).  This models
    e.g. uncompressed audio over the FDDI ring.
    """

    rate: float
    packet_bits: float = 0.0

    __hash__ = TrafficDescriptor._stored_hash

    def __post_init__(self) -> None:
        self._require_finite()
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.packet_bits < 0:
            raise ConfigurationError("packet size must be non-negative")
        self._store_hash()

    @property
    def long_term_rate(self) -> float:
        return self.rate

    @property
    def peak_rate(self) -> float:
        return math.inf if self.packet_bits > 0 else self.rate

    def envelope(self, horizon: float) -> Curve:
        return Curve.affine(self.packet_bits, self.rate)

    def describe(self) -> str:
        return f"CBR(rate={self.rate:.3g}b/s, packet={self.packet_bits:.3g}b)"

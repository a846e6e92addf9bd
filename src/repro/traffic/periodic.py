"""The classic one-period traffic model: ``C`` bits every ``P`` seconds."""

from __future__ import annotations

import dataclasses
import math

from repro.envelopes.curve import Curve
from repro.envelopes.staircase import periodic_burst_staircase
from repro.errors import ConfigurationError
from repro.traffic.descriptor import TrafficDescriptor


@dataclasses.dataclass(frozen=True)
class PeriodicTraffic(TrafficDescriptor):
    """A periodic source delivering at most ``c`` bits in any ``p`` window.

    This is the single-period special case of the paper's dual-periodic
    model; it is also the standard synchronous-message model of the FDDI
    literature (refs [1, 11]).
    """

    c: float
    p: float
    peak: float = math.inf

    __hash__ = TrafficDescriptor._stored_hash

    def __post_init__(self) -> None:
        self._require_finite()
        if self.c <= 0:
            raise ConfigurationError("message size c must be positive")
        if self.p <= 0:
            raise ConfigurationError("period p must be positive")
        if self.peak <= 0:
            raise ConfigurationError("peak rate must be positive")
        self._store_hash()

    @property
    def long_term_rate(self) -> float:
        return self.c / self.p

    @property
    def peak_rate(self) -> float:
        return self.peak

    def envelope(self, horizon: float) -> Curve:
        n = max(1, min(4096, int(math.ceil(horizon / self.p)) + 1))
        return periodic_burst_staircase(
            self.c, self.p, n_periods=n, peak_rate=self.peak
        )

    def describe(self) -> str:
        return f"Periodic(C={self.c:.3g}b / P={self.p:.3g}s)"

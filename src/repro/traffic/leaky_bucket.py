"""Leaky-bucket (sigma, rho) traffic descriptor.

The (sigma, rho) regulator of Cruz [refs 5, 6]: at most ``sigma + rho * I``
bits in any window of length ``I``, optionally capped by a peak rate.  ATM
usage parameter control (the generic cell rate algorithm) polices exactly
this shape, so the descriptor is the natural bridge between the paper's
Gamma(I) world and standard ATM traffic contracts.
"""

from __future__ import annotations

import dataclasses
import math

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError
from repro.traffic.descriptor import TrafficDescriptor


@dataclasses.dataclass(frozen=True)
class LeakyBucketTraffic(TrafficDescriptor):
    """``A(I) = min(sigma + rho * I, peak * I)``."""

    sigma: float
    rho: float
    peak: float = math.inf

    __hash__ = TrafficDescriptor._stored_hash

    def __post_init__(self) -> None:
        self._require_finite()
        if self.sigma < 0:
            raise ConfigurationError("burst sigma must be non-negative")
        if self.rho < 0:
            raise ConfigurationError("rate rho must be non-negative")
        if self.peak <= 0:
            raise ConfigurationError("peak rate must be positive")
        if math.isfinite(self.peak) and self.peak < self.rho:
            raise ConfigurationError("peak rate cannot be below sustained rate")
        self._store_hash()

    @property
    def long_term_rate(self) -> float:
        return self.rho

    @property
    def peak_rate(self) -> float:
        return self.peak

    def envelope(self, horizon: float) -> Curve:
        bucket = Curve.affine(self.sigma, self.rho)
        if math.isinf(self.peak):
            return bucket
        return bucket.cap(self.peak)

    def describe(self) -> str:
        return f"LeakyBucket(sigma={self.sigma:.3g}b, rho={self.rho:.3g}b/s)"

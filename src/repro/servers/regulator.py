"""Greedy traffic regulators (shapers).

Ref [15] of the paper ("Using Traffic Regulation to Meet End-to-End
Deadlines in ATM LANs") inserts *regulators* at network entry points:
a regulator buffers traffic and releases it no faster than a contracted
envelope, trading a bounded shaping delay for much smaller bursts inside
the backbone (smaller port delays and buffers for everyone else).

The classical greedy-shaper results make the analysis exact:

* the output envelope is the pointwise minimum of the input envelope and
  the (sub-additive) shaping envelope;
* the worst-case shaping delay is the horizontal deviation between the
  input envelope and the shaping curve;
* the worst-case shaper backlog is their vertical deviation.
"""

from __future__ import annotations

import math

from repro.envelopes.curve import Curve
from repro.envelopes.operations import FifoBounds, horizontal_deviation
from repro.errors import BufferOverflowError, ConfigurationError, UnstableSystemError
from repro.servers.base import DedicatedServer, ServerAnalysis


class RegulatorServer(DedicatedServer):
    """A greedy leaky-bucket shaper: release at most ``sigma + rho * t``.

    Parameters
    ----------
    sigma:
        Burst allowance, bits.
    rho:
        Sustained release rate, bits/second.
    peak:
        Optional peak-rate cap on the release (bits/second).
    buffer_bits:
        Shaper buffer (``inf`` = unbounded).
    """

    def __init__(
        self,
        sigma: float,
        rho: float,
        peak: float = math.inf,
        buffer_bits: float = math.inf,
        name: str = "regulator",
    ) -> None:
        if sigma < 0 or rho <= 0:
            raise ConfigurationError("need sigma >= 0 and rho > 0")
        if peak <= 0 or (math.isfinite(peak) and peak < rho):
            raise ConfigurationError("peak must be positive and >= rho")
        if buffer_bits <= 0:
            raise ConfigurationError("buffer must be positive (or inf)")
        self.sigma = float(sigma)
        self.rho = float(rho)
        self.peak = float(peak)
        self.buffer_bits = float(buffer_bits)
        self.name = name

    def shaping_curve(self) -> Curve:
        bucket = Curve.affine(self.sigma, self.rho)
        if math.isinf(self.peak):
            return bucket
        return bucket.cap(self.peak)

    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        shape = self.shaping_curve()
        if arrival.final_slope > self.rho * (1 + 1e-12):
            raise UnstableSystemError(
                f"{self.name}: arrival rate {arrival.final_slope:.6g} b/s "
                f"exceeds shaping rate {self.rho:.6g} b/s"
            )
        bounds = FifoBounds(arrival, shape)
        b = bounds.busy
        if math.isinf(b):
            raise UnstableSystemError(f"{self.name}: unbounded busy interval")
        backlog = bounds.backlog()
        if backlog > self.buffer_bits + 1e-9:
            raise BufferOverflowError(
                f"{self.name}: shaper backlog {backlog:.6g} bits exceeds buffer"
            )
        delay = horizontal_deviation(arrival, shape, t_max=b)
        if math.isinf(delay):
            raise UnstableSystemError(f"{self.name}: unbounded shaping delay")
        output = arrival.minimum(shape)
        return ServerAnalysis(
            delay_bound=delay,
            output=output,
            backlog_bound=backlog,
            busy_interval=b,
        )

    def cache_key(self):
        return ("regulator", self.sigma, self.rho, self.peak, self.buffer_bits)

    def __repr__(self) -> str:
        return (
            f"RegulatorServer({self.name!r}, sigma={self.sigma:.4g}b, "
            f"rho={self.rho:.4g}b/s)"
        )

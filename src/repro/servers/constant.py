"""Constant-delay servers.

The paper models several stages this way: the FDDI delay line (bit
propagation around the ring), the interface device's input port and frame
switch, and ATM link propagation.  A constant-delay server delays every bit
by (at most) a fixed amount and does not reshape traffic — the output
envelope equals the input envelope (Eqs. 13, 17, 19).
"""

from __future__ import annotations

from repro.envelopes.curve import Curve
from repro.errors import ConfigurationError
from repro.servers.base import DedicatedServer, ServerAnalysis


class ConstantDelayServer(DedicatedServer):
    """Delays every bit by exactly ``delay`` seconds."""

    def __init__(self, delay: float, name: str = "constant-delay") -> None:
        if delay < 0:
            raise ConfigurationError("delay must be non-negative")
        self.delay = float(delay)
        self.name = name

    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        return ServerAnalysis(
            delay_bound=self.delay,
            output=arrival,
            backlog_bound=0.0,
            busy_interval=0.0,
        )

    def cache_key(self):
        return ("const", self.delay)

    def __repr__(self) -> str:
        return f"ConstantDelayServer({self.name!r}, {self.delay:.3g}s)"

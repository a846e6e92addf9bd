"""The 802.5_MAC server — the paper's Section 7 extension.

Section 7: "if the LAN segments are IEEE 802.5 token rings, one only needs
to analyze an 802.5_MAC server in addition to the servers that have been
analyzed in this paper."  This module provides that server, so an
802.5-ATM-802.5 (or mixed) heterogeneous network can reuse the whole CAC
machinery unchanged.

Model (single-priority exhaustive-limited token ring with token-holding
timers, the standard real-time 802.5 configuration of ref [20]): station
``i`` may transmit for at most its token-holding time ``THT_i`` per token
visit, and the token must visit every station in turn, so consecutive
token arrivals at station ``i`` are separated by at most

    ``T_cycle = sum_j THT_j + walk_time``.

The guaranteed service is therefore the staircase

    ``avail(t) = max(0, floor(t / T_cycle) - 1) * THT_i * BW``

— the same shape as Theorem 1's timed-token staircase with ``T_cycle``
playing TTRT's role, which is why the rest of the analysis carries over
verbatim: both servers run :func:`repro.fddi.mac_server.theorem1`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.envelopes.curve import Curve
from repro.envelopes.operations import PlanCache
from repro.envelopes.staircase import timed_token_staircase
from repro.errors import ConfigurationError
from repro.fddi.mac_server import Theorem1Wording, theorem1
from repro.servers.base import DedicatedServer, ServerAnalysis
from repro.units import MS_PER_S

_WORDING = Theorem1Wording(
    zero_allocation="{name}: zero holding time cannot serve traffic",
    overload=(
        "{name}: arrival rate {arrival_rate:.6g} b/s exceeds "
        "guaranteed rate {rate:.6g} b/s"
    ),
    unbounded_busy="{name}: unbounded busy interval",
    overflow="{name}: backlog {backlog:.6g} bits exceeds buffer",
    unbounded_delay="{name}: unbounded delay",
)


class TokenRing8025MacServer(DedicatedServer):
    """Worst-case analysis of one station's queue on an 802.5 token ring.

    Parameters
    ----------
    holding_time:
        ``THT_i`` — this station's token-holding time, seconds per visit.
    cycle_time:
        Worst-case token cycle ``sum_j THT_j + walk_time``, seconds.
    bandwidth:
        Ring transmission rate, bits/second (4 or 16 Mbps classically).
    buffer_bits:
        Transmit buffer (``inf`` = unbounded).
    max_steps:
        Cap on the number of exact staircase steps, as for
        :class:`~repro.fddi.mac_server.FDDIMacServer`: the first horizon
        is always 32 steps, so a value below 32 caps nothing.
    plans:
        Shared Theorem-1 plans, as for
        :class:`~repro.fddi.mac_server.FDDIMacServer`.
    """

    def __init__(
        self,
        holding_time: float,
        cycle_time: float,
        bandwidth: float,
        buffer_bits: float = math.inf,
        name: str = "802.5-mac",
        max_steps: int = 4096,
        plans: "PlanCache | None" = None,
    ) -> None:
        if holding_time < 0:
            raise ConfigurationError("holding time must be non-negative")
        if cycle_time <= 0 or bandwidth <= 0:
            raise ConfigurationError("cycle time and bandwidth must be positive")
        if holding_time > cycle_time:
            raise ConfigurationError("holding time cannot exceed the cycle time")
        if buffer_bits <= 0:
            raise ConfigurationError("buffer must be positive (or inf)")
        self.holding_time = float(holding_time)
        self.cycle_time = float(cycle_time)
        self.bandwidth = float(bandwidth)
        self.buffer_bits = float(buffer_bits)
        self.name = name
        self.max_steps = int(max_steps)
        self.plans = plans

    @classmethod
    def for_ring(
        cls,
        holding_times: Sequence[float],
        station_index: int,
        bandwidth: float,
        walk_time: float = 0.0,
        **kwargs,
    ) -> "TokenRing8025MacServer":
        """Build the server for one station given the whole ring's timers."""
        if not (0 <= station_index < len(holding_times)):
            raise ConfigurationError("station index out of range")
        cycle = sum(holding_times) + walk_time
        return cls(
            holding_time=holding_times[station_index],
            cycle_time=cycle,
            bandwidth=bandwidth,
            **kwargs,
        )

    @property
    def guaranteed_rate(self) -> float:
        """Long-term service rate ``THT * BW / T_cycle`` (bits/second)."""
        return self.holding_time * self.bandwidth / self.cycle_time

    def availability(self, n_steps: int) -> Curve:
        """``avail(t)``: the timed-token staircase with T_cycle as TTRT."""
        return timed_token_staircase(
            self.holding_time, self.cycle_time, self.bandwidth, n_steps=n_steps
        )

    def analyze(self, arrival: Curve) -> ServerAnalysis:
        return theorem1(
            self, arrival, self.holding_time, self.cycle_time, _WORDING
        )

    def cache_key(self):
        return (
            "802.5-mac",
            self.holding_time,
            self.cycle_time,
            self.bandwidth,
            self.buffer_bits,
            self.max_steps,
        )

    def __repr__(self) -> str:
        return (
            f"TokenRing8025MacServer({self.name!r}, "
            f"THT={self.holding_time * MS_PER_S:.4g}ms, "
            f"cycle={self.cycle_time * MS_PER_S:.4g}ms)"
        )

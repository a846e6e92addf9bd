"""The FDDI_MAC server analysis — Theorem 1 of the paper.

A station (or interface device) holding synchronous allocation ``H`` on a
ring with rotation target TTRT is guaranteed the availability staircase

    ``avail(t) = max(0, (floor(t / TTRT) - 1) * H * BW)``.

Theorem 1 then gives, for an input envelope ``A(t) = t * Gamma(t)``:

1. the maximal busy interval ``B = min { t : A(t) <= avail(t) }``;
2. the buffer requirement ``F = max_{0 < t <= B} [A(t) - avail(t)]``;
3. the worst-case delay ``chi = max_{0 < t <= B} min { d : avail(t+d) >= A(t) }``
   (infinite if ``F`` exceeds the MAC buffer);
4. the output envelope ``Gamma'(I) = min(BW, Upsilon(I))`` with
   ``Upsilon(I) = max_{0 <= t <= B} [A(t + I) - avail(t)] / I``.

Each maps directly onto an envelope-algebra operation.  :func:`theorem1`
runs them for any station served once per token rotation; the 802.5 MAC
server of Section 7 shares it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from repro.envelopes.curve import Curve
from repro.envelopes.operations import (
    FifoBounds,
    PlanCache,
    deconvolve,
    horizontal_deviation,
)
from repro.envelopes.staircase import timed_token_staircase
from repro.errors import BufferOverflowError, ConfigurationError, UnstableSystemError
from repro.servers.base import DedicatedServer, ServerAnalysis
from repro.units import MS_PER_S

if TYPE_CHECKING:
    from repro.fddi.token_ring_802_5 import TokenRing8025MacServer


class Theorem1Wording(NamedTuple):
    """The error messages of one server's :func:`theorem1`.

    Each is a ``str.format`` template over ``name``, ``arrival_rate``,
    ``rate``, ``backlog`` and ``buffer``.
    """

    zero_allocation: str
    overload: str
    unbounded_busy: str
    overflow: str
    unbounded_delay: str


def theorem1(
    server: "FDDIMacServer | TokenRing8025MacServer",
    arrival: Curve,
    allocation: float,
    rotation: float,
    wording: Theorem1Wording,
) -> ServerAnalysis:
    """Theorem 1 for ``arrival`` at a station served once per token rotation.

    ``allocation`` is the station's transmission time per token visit and
    ``rotation`` the bound on the time between visits (TTRT, or an 802.5
    token cycle); ``server.availability`` is the staircase they define.
    The grid and deconvolution plans come from ``server.plans`` when it
    is set, so a later call on the same arrival with another allocation
    reads only the staircase's values; the result is the same bit for
    bit.
    """
    name = server.name
    if allocation == 0.0:
        raise UnstableSystemError(wording.zero_allocation.format(name=name))
    rate = server.guaranteed_rate
    if arrival.final_slope > rate * (1 + 1e-12):
        raise UnstableSystemError(
            wording.overload.format(
                name=name, arrival_rate=arrival.final_slope, rate=rate
            )
        )

    # Adaptively size the exact staircase horizon to cover the busy
    # interval.  The affine tail under-estimates service, so a busy
    # interval computed within the horizon is exact; one that lands in
    # the tail region prompts a larger horizon.  Each horizon reads only
    # ``B``; the backlog comes from the final horizon's grid.
    n_steps = 32
    while True:
        avail = server.availability(n_steps)
        bounds = FifoBounds(arrival, avail, server.plans)
        b = bounds.busy
        if math.isinf(b):
            raise UnstableSystemError(wording.unbounded_busy.format(name=name))
        if b <= (n_steps - 1) * rotation or n_steps >= server.max_steps:
            break
        n_steps = min(server.max_steps, n_steps * 4)

    backlog = bounds.backlog()
    if backlog > server.buffer_bits + 1e-9:
        raise BufferOverflowError(
            wording.overflow.format(
                name=name, backlog=backlog, buffer=server.buffer_bits
            )
        )
    delay = horizontal_deviation(arrival, avail, t_max=b)
    if math.isinf(delay):
        raise UnstableSystemError(wording.unbounded_delay.format(name=name))

    # Theorem 1(4): output envelope, capped at the ring rate.
    output = deconvolve(arrival, avail, t_limit=b, plans=server.plans).cap(
        server.bandwidth
    )
    return ServerAnalysis(
        delay_bound=delay,
        output=output,
        backlog_bound=backlog,
        busy_interval=b,
    )


_FDDI_WORDING = Theorem1Wording(
    zero_allocation="{name}: zero synchronous allocation cannot serve traffic",
    overload=(
        "{name}: arrival rate {arrival_rate:.6g} b/s exceeds "
        "guaranteed synchronous rate {rate:.6g} b/s"
    ),
    unbounded_busy="{name}: busy interval is unbounded",
    overflow=(
        "{name}: worst-case backlog {backlog:.6g} bits exceeds "
        "buffer {buffer:.6g} bits"
    ),
    unbounded_delay="{name}: unbounded delay (service plateau below arrivals)",
)


class FDDIMacServer(DedicatedServer):
    """Theorem-1 analysis of one station's synchronous MAC queue.

    Parameters
    ----------
    sync_time:
        ``H`` — the station's synchronous allocation, seconds per rotation.
    ttrt:
        Target token rotation time, seconds.
    bandwidth:
        Ring rate ``BW_FDDI``, bits/second.
    buffer_bits:
        MAC transmit buffer ``S`` in bits (``inf`` = unbounded).  Theorem 1
        declares the delay infinite on overflow; we raise
        :class:`BufferOverflowError` so the condition cannot be ignored.
    max_steps:
        Cap on the number of exact staircase steps used before the
        conservative affine tail takes over.  The first horizon is always
        32 steps, and the horizon grows (by 4x, up to ``max_steps``) only
        while the busy interval runs past it, so a ``max_steps`` below 32
        caps nothing: ``max_steps=8`` analyzes on a 32-step staircase.
    service_segments:
        Optional segment cap on the availability staircase
        (``AnalysisConfig.coarsen_segments``).  Coarsening a *service*
        curve must round it **down** (``Curve.coarsen(direction="lower")``)
        so the analyzed service never exceeds the guaranteed one and every
        bound stays conservative.  ``None`` (default) = exact staircase.
    plans:
        Theorem-1 plans shared by the servers of one analyzer (see
        :func:`theorem1`); ``None`` (default) builds fresh plans on every
        call.  Results are the same bit for bit either way.
    """

    def __init__(
        self,
        sync_time: float,
        ttrt: float,
        bandwidth: float,
        buffer_bits: float = math.inf,
        name: str = "fddi-mac",
        max_steps: int = 4096,
        service_segments: "int | None" = None,
        plans: "PlanCache | None" = None,
    ) -> None:
        if sync_time < 0:
            raise ConfigurationError("synchronous allocation must be non-negative")
        if ttrt <= 0 or bandwidth <= 0:
            raise ConfigurationError("TTRT and bandwidth must be positive")
        if buffer_bits <= 0:
            raise ConfigurationError("buffer must be positive (or inf)")
        if service_segments is not None and service_segments < 8:
            raise ConfigurationError("service_segments must be >= 8 (or None)")
        self.sync_time = float(sync_time)
        self.ttrt = float(ttrt)
        self.bandwidth = float(bandwidth)
        self.buffer_bits = float(buffer_bits)
        self.name = name
        self.max_steps = int(max_steps)
        self.service_segments = service_segments
        self.plans = plans

    # ------------------------------------------------------------------

    @property
    def guaranteed_rate(self) -> float:
        """Long-term synchronous service rate ``H * BW / TTRT`` (bits/s)."""
        return self.sync_time * self.bandwidth / self.ttrt

    def availability(self, n_steps: int) -> Curve:
        """The ``avail(t)`` staircase with ``n_steps`` exact steps.

        With ``service_segments`` set, the staircase is conservatively
        under-approximated (rounded down) to that many segments.
        """
        avail = timed_token_staircase(
            self.sync_time, self.ttrt, self.bandwidth, n_steps=n_steps
        )
        if (
            self.service_segments is not None
            and len(avail.xs) > self.service_segments
        ):
            avail = avail.coarsen(self.service_segments, direction="lower")
        return avail

    def analyze(self, arrival: Curve) -> ServerAnalysis:
        """Run Theorem 1 for ``arrival``; see class docstring.

        Raises
        ------
        UnstableSystemError
            If the long-term arrival rate exceeds the guaranteed service
            rate (the busy interval — and hence the delay — is unbounded).
        BufferOverflowError
            If the worst-case backlog exceeds ``buffer_bits`` (Theorem 1
            case ``F > S``: infinite delay).
        """
        return theorem1(self, arrival, self.sync_time, self.ttrt, _FDDI_WORDING)

    def cache_key(self):
        return (
            "fddi-mac",
            self.sync_time,
            self.ttrt,
            self.bandwidth,
            self.buffer_bits,
            self.max_steps,
            self.service_segments,
        )

    def __repr__(self) -> str:
        return (
            f"FDDIMacServer({self.name!r}, H={self.sync_time * MS_PER_S:.4g}ms, "
            f"TTRT={self.ttrt * MS_PER_S:.4g}ms)"
        )

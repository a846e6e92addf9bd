"""Base classes for server analysis."""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

from repro.envelopes.curve import Curve


@dataclasses.dataclass(frozen=True)
class ServerAnalysis:
    """The result of analyzing one server for one connection.

    Attributes
    ----------
    delay_bound:
        Worst-case delay suffered by the connection's traffic at this server
        (seconds).  ``math.inf`` is never stored here — servers raise
        :class:`repro.errors.UnstableSystemError` or
        :class:`repro.errors.BufferOverflowError` instead, so callers cannot
        accidentally ignore an infeasible analysis.
    output:
        The connection's traffic envelope at the server's exit; ``None``
        when an analysis with ``output=False`` skipped it.
    backlog_bound:
        Worst-case backlog (bits) the connection contributes at this server.
    busy_interval:
        The maximal busy interval used in the analysis (seconds); 0 for
        constant-delay servers.
    """

    delay_bound: float
    output: Optional[Curve]
    backlog_bound: float = 0.0
    busy_interval: float = 0.0


class DedicatedServer(abc.ABC):
    """A server whose behaviour towards a connection depends only on that
    connection's own traffic (e.g. the source FDDI MAC, a delay line, the
    frame/cell converters)."""

    #: Human-readable name used in per-hop delay reports.
    name: str = "server"

    @abc.abstractmethod
    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        """Analyze the server for a connection with input envelope ``arrival``.

        With ``output=False`` the caller reads only the bounds, and a
        server whose output costs work (Theorem 1's MACs) skips it and
        returns ``output=None``.  The bounds are the same either way.
        """

    @abc.abstractmethod
    def cache_key(self):
        """A hashable key identifying this server's *behaviour* (not its
        name).  Two servers with equal keys must produce identical analyses
        for identical inputs; the delay engine memoizes every dedicated
        stage on ``(cache_key, envelope)``."""


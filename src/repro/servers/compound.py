"""Chains of dedicated servers (compound servers)."""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.envelopes.curve import Curve
from repro.servers.base import DedicatedServer, ServerAnalysis


class ServerChain(DedicatedServer):
    """A sequence of dedicated servers traversed in order.

    The chain's delay bound is the sum of the per-server bounds computed
    with each server's *actual* input envelope (the previous server's
    output), exactly as Eq. (7) sums the compound-server delays.
    """

    def __init__(self, servers: Iterable[DedicatedServer], name: str = "chain") -> None:
        self.servers: List[DedicatedServer] = list(servers)
        self.name = name

    def analyze(self, arrival: Curve, *, output: bool = True) -> ServerAnalysis:
        total_delay = 0.0
        max_backlog = 0.0
        max_busy = 0.0
        envelope = arrival
        for server in self.servers:
            result = server.analyze(envelope)
            total_delay += result.delay_bound
            max_backlog = max(max_backlog, result.backlog_bound)
            max_busy = max(max_busy, result.busy_interval)
            assert result.output is not None
            envelope = result.output
        return ServerAnalysis(
            delay_bound=total_delay,
            output=envelope,
            backlog_bound=max_backlog,
            busy_interval=max_busy,
        )

    def cache_key(self):
        return ("chain", tuple(server.cache_key() for server in self.servers))

    def analyze_per_hop(
        self, arrival: Curve
    ) -> Tuple[List[Tuple[str, ServerAnalysis]], Curve]:
        """Like :meth:`analyze` but returns the per-server breakdown."""
        breakdown: List[Tuple[str, ServerAnalysis]] = []
        envelope = arrival
        for server in self.servers:
            result = server.analyze(envelope)
            breakdown.append((server.name, result))
            assert result.output is not None
            envelope = result.output
        return breakdown, envelope

    def __repr__(self) -> str:
        inner = " -> ".join(s.name for s in self.servers)
        return f"ServerChain({self.name!r}: {inner})"

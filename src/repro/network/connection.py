"""Connection objects: the request spec and the admitted record."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.network.routing import Route
from repro.traffic.descriptor import TrafficDescriptor


@dataclasses.dataclass(frozen=True)
class ConnectionSpec:
    """A connection-establishment request (the application's contract offer).

    Attributes
    ----------
    conn_id:
        Unique identifier (the paper's ``M_{i,j}``).
    source_host, dest_host:
        Endpoint host ids.
    traffic:
        The source traffic descriptor (Section 4.2).
    deadline:
        ``D`` — the worst-case end-to-end delay bound requested, seconds.
    """

    conn_id: str
    source_host: str
    dest_host: str
    traffic: TrafficDescriptor
    deadline: float

    def __post_init__(self) -> None:
        if not self.conn_id:
            raise ConfigurationError("conn_id must be non-empty")
        if not math.isfinite(self.deadline) or self.deadline <= 0:
            raise ConfigurationError("deadline must be positive and finite")
        if self.source_host == self.dest_host:
            raise ConfigurationError("source and destination must differ")


@dataclasses.dataclass
class ConnectionRecord:
    """An admitted connection and the resources the CAC granted it."""

    spec: ConnectionSpec
    route: Route
    #: Synchronous time allocated on the source ring (``H_S``), seconds.
    h_source: float
    #: Synchronous time allocated on the destination ring (``H_R``), seconds.
    h_dest: float
    #: The end-to-end worst-case delay bound at admission time, seconds.
    delay_bound: Optional[float] = None

    @property
    def conn_id(self) -> str:
        return self.spec.conn_id

    @property
    def slack(self) -> Optional[float]:
        """Deadline minus delay bound (None until a bound is computed)."""
        if self.delay_bound is None:
            return None
        return self.spec.deadline - self.delay_bound

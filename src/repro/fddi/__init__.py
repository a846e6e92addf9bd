"""FDDI substrate: the timed-token ring model of the paper.

FDDI is a 100 Mbps fiber token ring using the timed-token MAC protocol: a
station with synchronous allocation ``H`` may transmit real-time traffic
for up to ``H`` seconds on every token visit, and the protocol constrains
the sum of allocations plus overhead to the target token rotation time
(TTRT).  The guaranteed service a connection receives is the staircase
``avail(t)`` of Theorem 1.

This package provides:

* :class:`FDDIRing` — ring state: TTRT, overhead, the synchronous-bandwidth
  ledger consulted by the CAC (Eqs. 26/27).
* :class:`FDDIMacServer` — the Theorem-1 analysis of a station's MAC queue.
* :mod:`repro.fddi.timed_token` — protocol timing facts (token rotation
  bounds, minimum useful allocation).
* :class:`TokenRing8025MacServer` — the IEEE 802.5 token ring of Section 7,
  analyzed by the same Theorem-1 routine.
"""

from repro.fddi.ring import FDDIRing
from repro.fddi.mac_server import FDDIMacServer
from repro.fddi.timed_token import (
    max_token_rotation,
    min_sync_allocation,
    worst_case_token_wait,
)
from repro.fddi.token_ring_802_5 import TokenRing8025MacServer

__all__ = [
    "FDDIMacServer",
    "FDDIRing",
    "TokenRing8025MacServer",
    "max_token_rotation",
    "min_sync_allocation",
    "worst_case_token_wait",
]

"""Standing admission-control service over the CAC of Section 5.3.

The experiments drive :class:`~repro.core.cac.AdmissionController` as a
library inside one process and throw it away afterwards.  This package
turns the same controller into a *service* an operator could actually run
against live connection signalling, hardened end-to-end for faults:

* :mod:`repro.service.server` — the asyncio :class:`AdmissionService`
  over one controller: bounded priority queue with load shedding,
  per-request deadlines with ``TIMEOUT`` verdicts, write-ahead journaling,
  and a degradation ladder (exact analysis <-> admission freeze) driven
  by measured decision latency;
* :mod:`repro.service.journal` — the crash-recovery journal and snapshot
  store: a killed server restores bit-identically;
* :mod:`repro.service.frontend` — a JSON-lines TCP front-end;
* :mod:`repro.service.bench` — the fixed 6-ring scenario and scripted
  workload shared by ``python -m repro service soak``, perfbench and the
  service tests.
"""

from __future__ import annotations

from repro.service.degrade import EXACT, FROZEN, DegradationLadder
from repro.service.journal import JournalStore
from repro.service.server import (
    ADMITTED,
    BUSY,
    ERROR,
    REJECTED,
    RELEASED,
    TIMEOUT,
    UNKNOWN,
    AdmissionService,
    ServiceResponse,
)

__all__ = [
    "ADMITTED",
    "BUSY",
    "ERROR",
    "EXACT",
    "FROZEN",
    "REJECTED",
    "RELEASED",
    "TIMEOUT",
    "UNKNOWN",
    "AdmissionService",
    "DegradationLadder",
    "JournalStore",
    "ServiceResponse",
]

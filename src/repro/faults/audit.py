"""End-of-run survivability audit: no leaks, no broken contracts.

After a fault-injection run the controller must be indistinguishable from
one that simply admitted the surviving connection set: every ring ledger
equals the sum of the recorded allocations (zero leaked synchronous
bandwidth — releases and re-admissions fully balanced), and every
surviving connection still meets its deadline on the *current* topology.
ATM ports and interface devices hold no per-connection state (the delay
analysis recomputes their envelopes from the live connection set), so the
ring ledgers plus the delay check cover the entire resource surface.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.cac import LEAK_TOLERANCE, AdmissionController
from repro.errors import ReproError
from repro.units import MS_PER_S


@dataclasses.dataclass(frozen=True)
class SurvivabilityAudit:
    """Outcome of :func:`audit_controller`."""

    #: ring_id -> ledger total minus recorded allocations (should be ~0).
    ring_leaks: Dict[str, float]
    #: conn_id -> delay overrun in seconds (delay bound minus deadline).
    deadline_violations: Dict[str, float]
    #: Structural problems (e.g. the delay analysis diverged).
    errors: List[str]
    n_connections: int

    @property
    def leaked_sync_time(self) -> float:
        """Largest absolute per-ring ledger discrepancy, seconds."""
        return max((abs(v) for v in self.ring_leaks.values()), default=0.0)

    @property
    def ok(self) -> bool:
        return (
            self.leaked_sync_time <= LEAK_TOLERANCE
            and not self.deadline_violations
            and not self.errors
        )

    def format(self) -> str:
        lines = [
            f"Survivability audit over {self.n_connections} live connections: "
            + ("PASS" if self.ok else "FAIL")
        ]
        lines.append(
            f"  max ring-ledger discrepancy: {self.leaked_sync_time:.3e} s"
        )
        for cid, overrun in sorted(self.deadline_violations.items()):
            lines.append(f"  DEADLINE VIOLATED {cid}: +{overrun * MS_PER_S:.3f} ms")
        for err in self.errors:
            lines.append(f"  ERROR: {err}")
        return "\n".join(lines)


def audit_controller(cac: AdmissionController) -> SurvivabilityAudit:
    """Audit a controller's final state after (any number of) faults."""
    ring_leaks = cac.audit_allocations()
    deadline_violations: Dict[str, float] = {}
    errors: List[str] = []
    if cac.connections:
        try:
            delays = cac.current_delays()
        except ReproError as exc:
            errors.append(f"delay analysis failed: {exc}")
        else:
            for cid, delay in delays.items():
                deadline = cac.connections[cid].spec.deadline
                if delay > deadline + 1e-12:
                    deadline_violations[cid] = delay - deadline
    return SurvivabilityAudit(
        ring_leaks=ring_leaks,
        deadline_violations=deadline_violations,
        errors=errors,
        n_connections=len(cac.connections),
    )

"""Graceful-degradation ladder driven by measured decision latency.

The admission decision is the expensive step (a binary search of delay
analyses), and its cost grows with the size of the interference component
it lands in.  Rather than letting the queue back up unboundedly, the
service moves between two rungs:

* ``EXACT`` — the default: every admission is decided by the delay
  analysis;
* ``FROZEN`` — new admissions are shed with ``BUSY`` (releases always
  pass; they shrink the problem).

Every decision runs the same exact analysis, so the bound a decision
records never depends on host speed.

Transitions use an EWMA of decision latency with hysteresis
(``degrade_hi`` to engage, ``degrade_lo`` to disengage, ``degrade_lo <
degrade_hi``) and a minimum dwell in decisions, so the ladder cannot flap
on a single outlier.  While FROZEN the ladder would observe
no latencies at all (everything is shed) and could never recover; instead
every ``freeze_probe_every``-th shed admission is decided anyway as a
**thaw probe**, feeding the EWMA so the ladder can step back down once
the component has drained.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.units import MS_PER_S

from repro.config import ServiceConfig

EXACT = 0
FROZEN = 1

LEVEL_NAMES = {EXACT: "EXACT", FROZEN: "FROZEN"}


@dataclasses.dataclass(frozen=True)
class LadderTransition:
    """One recorded rung change (the metrics surface keeps all of them)."""

    #: Index of the decision whose latency triggered the change.
    decision_index: int
    from_level: int
    to_level: int
    #: EWMA latency at the moment of the transition, seconds.
    ewma: float

    def describe(self) -> str:
        return (
            f"decision {self.decision_index}: "
            f"{LEVEL_NAMES[self.from_level]} -> {LEVEL_NAMES[self.to_level]} "
            f"(ewma={self.ewma * MS_PER_S:.2f} ms)"
        )


class DegradationLadder:
    """Hysteretic EXACT <-> FROZEN controller."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.level = EXACT
        self._ewma: Optional[float] = None
        #: Smoothing factor of the standard N-observation EWMA.
        self._alpha = 2.0 / (config.latency_window + 1.0)
        #: Decisions observed since the last transition.
        self._dwell = config.min_dwell
        self._decisions = 0
        #: Shed admissions since freezing (drives thaw probing).
        self._frozen_sheds = 0
        self.transitions: List[LadderTransition] = []

    # -- observations ----------------------------------------------------

    @property
    def ewma(self) -> float:
        return 0.0 if self._ewma is None else self._ewma

    @property
    def frozen(self) -> bool:
        return self.level == FROZEN

    def observe(self, latency: float) -> None:
        """Feed one decision latency (seconds); may change the level."""
        self._decisions += 1
        self._dwell += 1
        if self._ewma is None:
            self._ewma = latency
        else:
            self._ewma += self._alpha * (latency - self._ewma)
        if self._dwell < self.config.min_dwell:
            return
        if self._ewma > self.config.degrade_hi and self.level == EXACT:
            self._step(FROZEN)
        elif self._ewma < self.config.degrade_lo and self.level == FROZEN:
            self._step(EXACT)

    def _step(self, to_level: int) -> None:
        self.transitions.append(
            LadderTransition(
                decision_index=self._decisions,
                from_level=self.level,
                to_level=to_level,
                ewma=self.ewma,
            )
        )
        self.level = to_level
        self._dwell = 0
        self._frozen_sheds = 0

    # -- freeze handling -------------------------------------------------

    def admit_allowed(self) -> bool:
        """Whether the next admission may be *decided* at all.

        While FROZEN, usually False — but every ``freeze_probe_every``-th
        call returns True (a thaw probe), so the EWMA keeps receiving
        observations and the freeze is not a trap state.
        """
        if not self.frozen:
            return True
        self._frozen_sheds += 1
        return self._frozen_sheds % self.config.freeze_probe_every == 0

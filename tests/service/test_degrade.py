"""Unit tests for the degradation ladder (EWMA + hysteresis, two rungs)."""

from repro.config import ServiceConfig
from repro.service.degrade import EXACT, FROZEN, DegradationLadder


def _config(**overrides):
    base = dict(
        latency_window=4,
        degrade_hi=0.5,
        degrade_lo=0.2,
        min_dwell=4,
        freeze_probe_every=4,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestTransitions:
    def test_starts_exact_and_engages_on_spike(self):
        ladder = DegradationLadder(_config())
        assert ladder.level == EXACT
        ladder.observe(10.0)  # first observation seeds the EWMA directly
        assert ladder.level == FROZEN
        assert len(ladder.transitions) == 1

    def test_single_mild_observation_does_not_engage(self):
        ladder = DegradationLadder(_config())
        ladder.observe(0.4)  # seeds EWMA at 0.4 < hi
        assert ladder.level == EXACT

    def test_walks_to_frozen_only_after_dwell(self):
        ladder = DegradationLadder(_config(min_dwell=4))
        ladder.observe(1.0)
        assert ladder.level == FROZEN
        # The EWMA falls far below lo at once, but dwell forbids the step
        # back until min_dwell observations have passed since the freeze.
        for _ in range(3):
            ladder.observe(0.0)
        assert ladder.level == FROZEN
        ladder.observe(0.0)
        assert ladder.level == EXACT
        assert [t.to_level for t in ladder.transitions] == [FROZEN, EXACT]

    def test_recovers_with_hysteresis(self):
        ladder = DegradationLadder(_config())
        for _ in range(8):
            ladder.observe(1.0)
        assert ladder.level == FROZEN
        # Latency between lo and hi: the band holds the current level.
        for _ in range(20):
            ladder.observe(0.3)
        assert ladder.level == FROZEN
        for _ in range(30):
            ladder.observe(0.0)
        assert ladder.level == EXACT
        assert [t.to_level for t in ladder.transitions] == [FROZEN, EXACT]

    def test_levels_are_named(self):
        ladder = DegradationLadder(_config())
        ladder.observe(10.0)
        assert ladder.transitions[0].describe().startswith(
            "decision 1: EXACT -> FROZEN"
        )


class TestFreezeGate:
    def test_thaw_probes_every_nth_attempt(self):
        ladder = DegradationLadder(_config(freeze_probe_every=4))
        for _ in range(8):
            ladder.observe(1.0)
        assert ladder.frozen
        verdicts = [ladder.admit_allowed() for _ in range(8)]
        assert verdicts == [False, False, False, True] * 2

    def test_not_frozen_always_allows(self):
        ladder = DegradationLadder(_config())
        assert all(ladder.admit_allowed() for _ in range(10))

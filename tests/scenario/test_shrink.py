"""Shrinker: ddmin units, deterministic minimization, planted violations."""

from typing import FrozenSet, Sequence

import pytest

from repro.config import NetworkConfig
from repro.scenario.check import INV_BOUND, CheckOptions, check_scenario
from repro.scenario.fuzz import _failing_predicate
from repro.scenario.shrink import _ddmin, shrink_spec
from repro.network.connection import ConnectionSpec
from repro.scenario.spec import PacketRunSpec, ScenarioSpec
from repro.traffic.dual_periodic import DualPeriodicTraffic


def _entry(conn_id: str, src_ring: int, dst_ring: int) -> ConnectionSpec:
    return ConnectionSpec(
        conn_id=conn_id,
        source_host=f"host{src_ring}-1",
        dest_host=f"host{dst_ring}-1",
        traffic=DualPeriodicTraffic(c1=8e3, p1=0.01, c2=8e3, p2=0.004),
        deadline=0.1,
    )


def _explicit_spec(*entries: ConnectionSpec) -> ScenarioSpec:
    return ScenarioSpec(
        name="shrink-me",
        topology=NetworkConfig(n_rings=4, hosts_per_ring=3),
        connections=entries,
        packet=PacketRunSpec(duration=0.05),
    )


class TestDdmin:
    def test_empty_input(self):
        assert _ddmin([], lambda items: True) == []

    def test_single_culprit(self):
        calls = []

        def fails(items: Sequence[int]) -> bool:
            calls.append(tuple(items))
            return 7 in items

        assert _ddmin(list(range(10)), fails) == [7]

    def test_pair_of_culprits(self):
        def fails(items: Sequence[int]) -> bool:
            return 2 in items and 9 in items

        assert sorted(_ddmin(list(range(12)), fails)) == [2, 9]

    def test_all_needed(self):
        items = [1, 2, 3]

        def fails(candidate: Sequence[int]) -> bool:
            return list(candidate) == items

        assert _ddmin(list(items), fails) == items

    def test_empty_list_failing_wins(self):
        assert _ddmin([1, 2, 3], lambda items: True) == []


class TestSyntheticShrink:
    """Shrink against a cheap predicate keyed on one poisoned connection."""

    @staticmethod
    def _poison_predicate(spec: ScenarioSpec) -> FrozenSet[str]:
        if any(e.conn_id == "bad" for e in spec.connections):
            return frozenset({"synthetic_invariant"})
        return frozenset()

    def test_reduces_to_the_culprit(self):
        spec = _explicit_spec(
            _entry("ok-1", 1, 2),
            _entry("bad", 2, 3),
            _entry("ok-2", 3, 4),
            _entry("ok-3", 1, 4),
        )
        result = shrink_spec(spec, self._poison_predicate)
        assert [e.conn_id for e in result.spec.connections] == ["bad"]
        assert result.invariants == ("synthetic_invariant",)
        # Topology shrinks to the smallest network still hosting the
        # culprit's endpoints (host2-1 -> host3-1 needs 3 rings, 1 host).
        assert result.spec.topology.n_rings == 3
        assert result.spec.topology.hosts_per_ring == 1
        # Packet horizon shrinks to the shortest candidate.
        assert result.spec.packet.duration == 0.05

    def test_shrink_is_deterministic(self):
        spec = _explicit_spec(
            _entry("ok-1", 1, 2),
            _entry("bad", 2, 3),
            _entry("ok-2", 3, 4),
        )
        a = shrink_spec(spec, self._poison_predicate)
        b = shrink_spec(spec, self._poison_predicate)
        assert a.spec == b.spec
        assert a.evaluations == b.evaluations
        assert a.iterations == b.iterations

    def test_passing_spec_is_rejected(self):
        spec = _explicit_spec(_entry("ok-1", 1, 2))
        with pytest.raises(ValueError, match="violates"):
            shrink_spec(spec, self._poison_predicate)

    def test_erroring_candidates_count_as_passing(self):
        spec = _explicit_spec(_entry("bad", 2, 3), _entry("ok-1", 1, 4))

        def touchy(candidate: ScenarioSpec) -> FrozenSet[str]:
            # Any candidate that dropped a connection blows up; the
            # shrinker must treat that as "does not reproduce" and keep
            # the original pair.
            if len(candidate.connections) != 2:
                raise ValueError("boom")
            return frozenset({"synthetic_invariant"})

        # Non-ReproError propagates: the shrinker only swallows the
        # domain's own errors.
        with pytest.raises(ValueError, match="boom"):
            shrink_spec(spec, touchy)


class TestPlantedViolation:
    """End-to-end: a bound violation planted via ``bound_scale`` shrinks
    to a tiny reproducer through the real invariant suite."""

    #: Packet/bound invariant only; the other checks neither fire under
    #: bound_scale nor need to run, and skipping them keeps the test fast.
    OPTIONS = CheckOptions(
        differential=False,
        coarsening=False,
        replay=False,
        bound_scale=1e-4,
    )

    def _spec(self) -> ScenarioSpec:
        return _explicit_spec(
            _entry("v-1", 1, 2),
            _entry("v-2", 2, 3),
            _entry("v-3", 3, 4),
        )

    def test_planted_violation_is_caught_and_shrunk(self):
        spec = self._spec()
        report = check_scenario(spec, self.OPTIONS)
        assert not report.ok
        assert INV_BOUND in report.violated_invariants

        result = shrink_spec(spec, _failing_predicate(self.OPTIONS))
        assert INV_BOUND in result.invariants
        # The acceptance bar: a minimal reproducer with at most 3
        # connections; here ddmin gets it down to one.
        assert len(result.spec.connections) <= 3
        assert check_scenario(result.spec, self.OPTIONS).ok is False
        # The same spec passes under production options (violation was
        # planted by the checker, not by the CAC).
        assert check_scenario(
            result.spec, CheckOptions(differential=False, replay=False)
        ).ok

    def test_planted_shrink_is_deterministic(self):
        spec = self._spec()
        a = shrink_spec(spec, _failing_predicate(self.OPTIONS))
        b = shrink_spec(spec, _failing_predicate(self.OPTIONS))
        assert a.spec == b.spec
        assert a.evaluations == b.evaluations

"""Fixture-driven tests for the flow-aware rules (RL006-RL008)."""

import shutil
import textwrap
from pathlib import Path

from repro.lint import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, virtual_path: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, name, virtual_path=virtual_path)


def codes(findings):
    return sorted({f.code for f in findings})


class TestRL006Transactionality:
    """The pre-PR-9 ``connect_switches`` body is the golden must-flag."""

    def test_pre_pr9_connect_switches_is_flagged(self):
        findings = lint_fixture("rl006_bad.py", "repro/network/topology.py")
        assert codes(findings) == ["RL006"]
        # both validation raises are reachable (via the loop back edge)
        # with iteration-1 mutations still uncommitted
        assert len(findings) == 2
        for f in findings:
            assert "uncommitted mutation" in f.message
            assert "connect_switches" in f.message
            assert "self._switch_links" in f.message

    def test_fixed_and_rollback_idioms_are_clean(self):
        # validate-then-mutate, and the CAC release-on-failure handler
        assert lint_fixture("rl006_good.py", "repro/network/topology.py") == []

    def test_out_of_scope_path_is_ignored(self):
        findings = lint_fixture("rl006_bad.py", "repro/experiments/fixture.py")
        assert "RL006" not in codes(findings)

    def test_marker_comment_registers_a_scope(self):
        source = textwrap.dedent(
            """
            class Store:
                def put(self, key, value):  # reprolint: transactional
                    self.items[key] = value
                    if not self.validate(key):
                        raise ValueError(key)
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/network/other.py"
        )
        assert codes(findings) == ["RL006"]

    def test_unmarked_function_outside_registry_is_not_judged(self):
        source = textwrap.dedent(
            """
            class Store:
                def put(self, key, value):
                    self.items[key] = value
                    if not self.validate(key):
                        raise ValueError(key)
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/network/other.py"
        )
        assert "RL006" not in codes(findings)


class TestRL007AsyncAtomicity:
    def test_await_spanning_mutations_are_flagged(self):
        findings = lint_fixture("rl007_bad.py", "repro/service/fixture.py")
        assert codes(findings) == ["RL007"]
        assert len(findings) == 2
        messages = "\n".join(f.message for f in findings)
        assert "self.state" in messages
        assert "self.counters.total" in messages
        assert "no lock held" in messages

    def test_claim_then_await_idioms_are_clean(self):
        # claim-then-await, and re-reading the state after the await
        assert lint_fixture("rl007_good.py", "repro/service/fixture.py") == []

    def test_a_held_lock_does_not_guard_the_read(self):
        # The rule tracks no locks: every await stales earlier reads.
        source = textwrap.dedent(
            """
            class S:
                async def admit(self, conn_id):
                    async with self._lock:
                        if conn_id in self.state.active:
                            return None
                        await self._flush()
                        self.state.active.add(conn_id)
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/service/fixture.py"
        )
        assert codes(findings) == ["RL007"]

    def test_async_with_suspends(self):
        source = textwrap.dedent(
            """
            class S:
                async def bump(self):
                    count = self.counters.total
                    async with self.session:
                        self.counters.total = count + 1
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/service/fixture.py"
        )
        assert codes(findings) == ["RL007"]

    def test_outside_service_package_is_ignored(self):
        findings = lint_fixture("rl007_bad.py", "repro/network/fixture.py")
        assert "RL007" not in codes(findings)

    def test_sync_methods_are_not_judged(self):
        source = textwrap.dedent(
            """
            class S:
                def admit(self, conn_id):
                    if conn_id in self.state.active:
                        return None
                    self.state.active.add(conn_id)
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/service/fixture.py"
        )
        assert "RL007" not in codes(findings)

    def test_read_and_write_without_await_between_is_clean(self):
        source = textwrap.dedent(
            """
            class S:
                async def admit(self, conn_id):
                    if conn_id in self.state.active:
                        return None
                    self.state.active.add(conn_id)
                    await self._flush()
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/service/fixture.py"
        )
        assert "RL007" not in codes(findings)


class TestRL008DimensionInference:
    def test_definite_mismatches_are_flagged(self):
        findings = lint_fixture("rl008_bad.py", "repro/core/fixture.py")
        assert codes(findings) == ["RL008"]
        messages = sorted(f.message for f in findings)
        assert messages == [
            "dimension mismatch in comparison: bits/s vs seconds",
            "dimension mismatch: bits - bits/s",
            "dimension mismatch: seconds + bits",
        ]

    def test_sound_arithmetic_and_unknowns_are_clean(self):
        assert lint_fixture("rl008_good.py", "repro/core/fixture.py") == []

    def test_units_module_itself_is_exempt(self):
        source = (FIXTURES / "rl008_bad.py").read_text(encoding="utf-8")
        assert (
            lint_source(source, "units.py", virtual_path="repro/units.py")
            == []
        )

    def test_division_changes_dimension_soundly(self):
        source = textwrap.dedent(
            """
            def f(frame_bits, window_s):
                rate = frame_bits / window_s
                return rate + frame_bits
            """
        )
        findings = lint_source(
            source, "x.py", virtual_path="repro/core/fixture.py"
        )
        assert [f.message for f in findings] == [
            "dimension mismatch: bits/s + bits"
        ]


class TestDeterminism:
    def test_two_runs_over_src_are_identical(self):
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        first = lint_paths([repo_src])
        second = lint_paths([repo_src])
        assert first == second

    def test_two_runs_over_a_dirty_tree_are_identical(self, tmp_path):
        # stage the must-flag fixtures at their in-scope module paths
        layout = {
            "rl006_bad.py": "repro/network/topology.py",
            "rl007_bad.py": "repro/service/server.py",
            "rl008_bad.py": "repro/core/budget.py",
        }
        for fixture, rel in layout.items():
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(FIXTURES / fixture, dest)
        first = lint_paths([str(tmp_path)])
        second = lint_paths([str(tmp_path)])
        assert first and first == second
        assert codes(first) == ["RL006", "RL007", "RL008"]

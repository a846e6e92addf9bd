"""Fixture-driven tests for the reprolint rule classes (RL001-RL004)."""

from pathlib import Path

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, virtual_path: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, name, virtual_path=virtual_path)


def codes(findings):
    return sorted({f.code for f in findings})


class TestRL001Determinism:
    def test_bad_fixture_is_flagged(self):
        findings = lint_fixture("rl001_bad.py", "repro/sim/fixture.py")
        assert codes(findings) == ["RL001"]
        messages = "\n".join(f.message for f in findings)
        assert "time.time" in messages
        assert "datetime" in messages
        assert "numpy.random.default_rng" in messages
        assert len(findings) >= 5

    def test_good_fixture_is_clean(self):
        assert lint_fixture("rl001_good.py", "repro/sim/fixture.py") == []

    def test_out_of_scope_package_is_ignored(self):
        findings = lint_fixture("rl001_bad.py", "repro/service/fixture.py")
        assert findings == []

    def test_scenario_wall_clock_is_flagged(self):
        source = "import time\nt0 = time.time()\n"
        findings = lint_source(
            source, "x.py", virtual_path="repro/scenario/shrink.py"
        )
        assert codes(findings) == ["RL001"]

    def test_random_streams_module_is_exempt(self):
        source = "import random\nx = random.getrandbits(8)\n"
        assert lint_source(source, "x.py", virtual_path="repro/sim/random.py") == []
        assert lint_source(source, "x.py", virtual_path="repro/sim/engine.py") != []


class TestRL002UnitDiscipline:
    def test_bad_fixture_is_flagged(self):
        findings = lint_fixture(
            "rl002_bad.py", "repro/interface_device/fixture.py"
        )
        assert codes(findings) == ["RL002"]
        flagged = {f.line for f in findings}
        # one finding per smell: *8, /1e6, /424, *1e-3, two suffix mismatches
        assert len(findings) == 6, findings
        assert len(flagged) == 6

    def test_good_fixture_is_clean(self):
        findings = lint_fixture(
            "rl002_good.py", "repro/interface_device/fixture.py"
        )
        assert findings == []

    def test_units_module_is_exempt(self):
        source = "BYTE = 8.0\nCELL_BITS = 53 * 8\n"
        assert lint_source(source, "u.py", virtual_path="repro/units.py") == []

    def test_magnitude_times_named_unit_is_allowed(self):
        source = "from repro.units import MS\nttrt = 8 * MS\n"
        assert (
            lint_source(source, "c.py", virtual_path="repro/config.py") == []
        )

    def test_bits_per_byte_next_to_a_byte_count_is_flagged(self):
        source = (
            "from repro.units import CELL_BYTES\n"
            "cell_bits = CELL_BYTES * 8\n"
            "cells = 2 * CELL_BYTES\n"
        )
        findings = lint_source(source, "c.py", virtual_path="repro/config.py")
        assert [(f.code, f.line) for f in findings] == [("RL002", 2)]


class TestRL003FloatSafety:
    def test_bad_fixture_is_flagged(self):
        findings = lint_fixture("rl003_bad.py", "repro/core/fixture.py")
        assert codes(findings) == ["RL003"]
        assert len(findings) == 3

    def test_good_fixture_is_clean(self):
        assert lint_fixture("rl003_good.py", "repro/core/fixture.py") == []

    def test_scope_is_core_and_envelopes_only(self):
        source = "def f(x: float):\n    return x == 0.5\n"
        assert lint_source(source, "f.py", virtual_path="repro/envelopes/f.py")
        assert (
            lint_source(source, "f.py", virtual_path="repro/traffic/f.py")
            == []
        )


class TestRL004CachePurity:
    def test_bad_fixture_is_flagged(self):
        findings = lint_fixture("rl004_bad.py", "repro/core/delay.py")
        assert codes(findings) == ["RL004"]
        # 5 cache-entry mutations + 4 breakpoints()-array mutations
        # (subscript store, augmented assign, .sort(), ufunc out=).
        assert len(findings) == 9, findings

    def test_good_fixture_is_clean(self):
        assert lint_fixture("rl004_good.py", "repro/core/delay.py") == []

    def test_cache_taints_scoped_to_the_two_engine_files(self):
        source = (
            "def f(self, k):\n"
            "    v = self._stage_cache.get(k)\n"
            "    v.append(1)\n"
        )
        assert lint_source(source, "d.py", virtual_path="repro/core/delay.py")
        assert (
            lint_source(source, "d.py", virtual_path="repro/core/cac.py")
            == []
        )

    def test_breakpoints_taints_apply_tree_wide(self):
        source = (
            "def f(curve):\n"
            "    xs = curve.breakpoints()\n"
            "    xs[0] = 0.0\n"
        )
        # Flagged in any repro module, not just the two engine files ...
        for where in ("repro/core/cac.py", "repro/traffic/source.py"):
            findings = lint_source(source, "b.py", virtual_path=where)
            assert codes(findings) == ["RL004"], where
        # ... but not outside the package.
        assert lint_source(source, "b.py", virtual_path="scripts/b.py") == []

    def test_breakpoints_copy_is_clean(self):
        source = (
            "import numpy as np\n"
            "def f(curve):\n"
            "    xs = np.array(curve.breakpoints())\n"
            "    xs[0] = 0.0\n"
            "    return xs\n"
        )
        assert (
            lint_source(source, "b.py", virtual_path="repro/core/cac.py")
            == []
        )


class TestSuppressions:
    def test_trailing_pragma_suppresses(self):
        source = (
            "import time\n"
            "t = time.time()  # reprolint: disable=RL001 -- reporting only\n"
        )
        assert lint_source(source, "s.py", virtual_path="repro/sim/s.py") == []

    def test_comment_line_pragma_covers_next_line(self):
        source = (
            "import time\n"
            "# reprolint: disable=RL001 -- reporting only\n"
            "t = time.time()\n"
        )
        assert lint_source(source, "s.py", virtual_path="repro/sim/s.py") == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "import time\n"
            "t = time.time()  # reprolint: disable=RL002 -- wrong code\n"
        )
        findings = lint_source(source, "s.py", virtual_path="repro/sim/s.py")
        # The RL001 still fires, and the RL002 pragma — suppressing
        # nothing — is reported stale.
        assert codes(findings) == ["RL001", "RL005"]
        assert any("stale suppression" in f.message for f in findings)

    def test_unjustified_pragma_reports_rl005(self):
        source = (
            "import time\n"
            "t = time.time()  # reprolint: disable=RL001\n"
        )
        findings = lint_source(source, "s.py", virtual_path="repro/sim/s.py")
        # The RL001 itself is suppressed, but the bare pragma is flagged.
        assert codes(findings) == ["RL005"]
        assert findings[0].line == 2

    def test_syntax_error_reports_rl000(self):
        findings = lint_source("def broken(:\n", "b.py", virtual_path="repro/core/b.py")
        assert codes(findings) == ["RL000"]


class TestFindingFormat:
    def test_format_includes_position_code_and_hint(self):
        findings = lint_fixture("rl003_bad.py", "repro/core/fixture.py")
        line = findings[0].format()
        assert "rl003_bad.py:" in line
        assert "RL003" in line
        assert "[fix:" in line

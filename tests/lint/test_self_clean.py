"""The repo must lint itself clean — the linter's ultimate fixture.

These tests enforce the invariant the CI lint job relies on: every rule
runs over ``src`` and finds nothing (or only explicitly justified
suppressions).
"""

import subprocess
import sys
import time
from pathlib import Path

import repro.lint.__main__ as lint_cli
from repro.lint import ALL_RULES, format_report, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: The rule catalog, in run order.  Adding, removing or renumbering a rule
#: must update this list.
RULE_CATALOG = ["RL001", "RL002", "RL003", "RL004", "RL006", "RL007", "RL008"]
#: Ceiling on one full-tree lint, in seconds: an order of magnitude above
#: the observed time, so it catches an accidentally super-linear rule, not
#: machine jitter.
LINT_BUDGET_S = 10.0


def test_src_tree_is_lint_clean():
    t0 = time.perf_counter()
    findings = lint_paths([str(SRC)])
    elapsed = time.perf_counter() - t0
    assert findings == [], "\n" + format_report(findings)
    assert elapsed < LINT_BUDGET_S, f"full-tree lint took {elapsed:.1f} s"


def test_cli_exits_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: clean" in proc.stdout


def test_cli_exits_nonzero_on_findings(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt0 = time.time()\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "RL001" in proc.stdout


def test_standalone_tool_runs():
    """The CLI runs as its own process and prints the pinned catalog."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert [rule.code for rule in ALL_RULES] == RULE_CATALOG
    for code in RULE_CATALOG:
        assert code in proc.stdout


def test_cli_exits_two_on_internal_error(monkeypatch, capsys):
    def boom(paths, rules=None):
        raise RuntimeError("synthetic linter bug")

    monkeypatch.setattr(lint_cli, "lint_paths", boom)
    assert lint_cli.main(["src"]) == 2
    err = capsys.readouterr().err
    assert "reprolint: internal error" in err
    assert "synthetic linter bug" in err

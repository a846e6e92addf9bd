"""The examples must stay runnable — they are documentation that executes."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))


def test_examples_found():
    assert SCRIPTS, f"no examples under {EXAMPLES}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "example produced no output"
    assert "VIOLAT" not in proc.stdout  # no bound/deadline violations

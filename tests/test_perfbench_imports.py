"""perfbench imports program names directly: renaming one must fail here.

``perfbench/tracer.py`` imports the envelope kernels (``busy_interval``,
``deconvolve``, ``horizontal_deviation``, ...) and wraps class methods
such as ``FDDIMacServer.analyze`` by name, all at import time.  ``--help``
runs those imports without running a workload.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_help_imports_the_program():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--workload" in proc.stdout

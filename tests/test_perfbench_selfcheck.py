"""The benchmark harness's own self-check, run as part of the test suite.

The harness traces per-layer metrics by wrapping functions where the
program looks them up; if a refactor moves one of those lookups, the
self-check fails here instead of the metric silently reading zero.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    # -B: leave no bytecode behind in the benchmark's directory
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

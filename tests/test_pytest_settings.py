"""The repository's pytest settings keep a run going past a failing
hypothesis test.

``filterwarnings = ["error"]`` turns warnings into errors.  When a
hypothesis test fails, hypothesis's pytest plugin imports ``libcst``, whose
import warns that ``mypy_extensions.TypedDict`` is deprecated; unfiltered,
that error ends the run with INTERNALERROR and every later test goes
unreported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_hides_no_later_result(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    # run in tmp_path, so the hypothesis database stays out of the checkout
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in proc.stdout, output

"""The suite's pytest settings report a failing hypothesis test as a failure.

filterwarnings turns every warning into an error. When a hypothesis test
fails, the hypothesis plugin imports libcst to write a patch of the failing
example, and libcst warns about mypy_extensions.TypedDict. Raised inside the
plugin's report hook, that warning would stop pytest with an internal
error (exit code 3) before any summary of the failures is printed.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_failing.py::test_small" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout

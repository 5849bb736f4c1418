"""The pytest settings in pyproject.toml keep a failing test a failure, not the end of the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_HYPOTHESIS_TEST = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_fails_and_the_session_goes_on(tmp_path):
    # Warnings are errors under these settings. Reporting a falsified example must not raise one inside a
    # pytest hook: that stops the session at INTERNALERROR, and the tests after it never run.
    (tmp_path / "test_one_failing.py").write_text(FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_one_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr

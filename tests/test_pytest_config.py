"""The suite's own pytest configuration reports a failing Hypothesis test as
a failure: every warning is an error there, and the modules Hypothesis
imports to report a failure must not turn that report into an
``INTERNALERROR`` that ends the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

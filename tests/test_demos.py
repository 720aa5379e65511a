"""Each demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=checkout_env(), capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

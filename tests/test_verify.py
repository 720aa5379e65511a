"""The ``stickperc verify`` registry under pytest: every check of every
suite at suite seeds 1-6, the seeds the benchmark's verify workload runs."""

import pytest

from stickperc import verify


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_check_passes(suite, seed):
    failed = [f"{c.name}: {c.detail}" for c in verify.SUITES[suite](seed) if not c.passed]
    assert not failed, failed

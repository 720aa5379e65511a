"""The ``stickperc verify`` registry under pytest: every check of every
suite at suite seeds 1-6, the seeds the benchmark's verify workload runs."""

import pytest

from stickperc import verify


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_check_passes(suite, seed):
    checks = verify.SUITES[suite](seed)
    # ``stickperc verify`` dumps these fields as JSON, which takes no numpy bool
    assert all(type(c.passed) is bool and type(c.detail) is str for c in checks), checks
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, failed

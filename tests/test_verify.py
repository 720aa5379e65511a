"""The ``stickperc verify`` registry under pytest: every check of every
suite at suite seeds 1-6, the seeds the benchmark's verify workload runs."""

import functools
import hashlib
import json

import numpy as np
import pytest

from stickperc import verify
from stickperc.rng import substream

SEEDS = range(1, 7)


@functools.cache
def suite_checks(suite, seed):
    return verify.SUITES[suite](seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_check_passes(suite, seed):
    checks = suite_checks(suite, seed)
    # ``stickperc verify`` dumps these fields as JSON, which takes no numpy bool
    assert all(type(c.passed) is bool and type(c.detail) is str for c in checks), checks
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
    assert not failed, failed


def test_registry_digest_pinned():
    # the checks laid out and hashed as the benchmark's verify workload
    # records one pass, so a change that moves any check's draws or detail
    # fails here; one that moves them on purpose re-pins this digest
    checks = [[seed, c.name, c.passed, c.detail] for seed in SEEDS for suite in verify.SUITES
              for c in suite_checks(suite, seed)]
    text = json.dumps([{"checks": checks}], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c79b0fab9ed8c58819ad4054fbefcb7424c31f1619321adf94f90fa598c66f0a"
    )


@pytest.mark.parametrize("n_cases", [1, 6_000, 10_000, 23_456])
def test_separation_minimum_evaluates_exactly_n_cases(monkeypatch, n_cases):
    kernel = verify.geometry.min_distance_outside_window
    rows = []

    def counted(x, *args):
        rows.append(len(x))
        return kernel(x, *args)

    monkeypatch.setattr(verify.geometry, "min_distance_outside_window", counted)
    assert verify.separation_minimum(substream(1), n_cases, 20.0) >= 6.0
    assert sum(rows) == n_cases


def test_random_units_live_in_their_rows_dimension():
    dims = substream(2).integers(2, 6, 1000)
    z = verify.random_units(substream(3), dims)
    assert z.shape == (1000, 5)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=1e-15)
    assert not np.any(z[np.arange(5) >= dims[:, None]])

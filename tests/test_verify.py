"""The ``stickperc verify`` registry under pytest: every check of every
suite at suite seeds 1-6, the seeds the benchmark's verify workload runs."""

import functools
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import checkout_env
from stickperc import branching, geometry, measures, oriented, verify
from stickperc.rng import substream
from stickperc.sampling import Rigid, Uniform

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


REGISTRY_DIGEST = "73f7043351e218b7b6268ef33dc08417223b6dee232dc51e8418381645fa7f06"


def registry_digest(checks_of):
    # the checks laid out and hashed as the benchmark's verify workload
    # records one pass
    checks = [[seed, c.name, c.passed, c.detail] for seed in SEEDS for suite in verify.SUITES
              for c in checks_of(suite, seed)]
    return hashlib.sha256(json.dumps([{"checks": checks}], sort_keys=True).encode()).hexdigest()


def test_registry_digest_pinned():
    # a change that moves any check's draws or detail fails here; one that
    # moves them on purpose re-pins this digest
    assert registry_digest(suite_checks) == REGISTRY_DIGEST


def fingerprint(values):
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def verify_monte_carlo(seed):
    """The exact integer outputs of verify's own Monte Carlo calls at a
    suite seed: the hits of the stick-ball and two-ball estimates, the
    samples of the three offspring estimates and the coupled survival
    matrix."""
    lam = measures.theorem_bounds(2, 32.0, "uniform", strict=False).lower
    offspring = [
        branching.offspring_mean_mc(2, 10.0, 0.1, Rigid(np.array([0.0, 1.0])), 1500, seed),
        branching.offspring_mean_mc(2, 20.0, 0.01, Uniform(), 800, seed),
        branching.offspring_mean_mc(2, 32.0, lam, Uniform(), 600, seed),
    ]
    return (
        measures.mc_stick_hit_volume(2, 10.0, 2.0, 200_000, seed).hits,
        measures.mc_two_ball_measure(2, 256.0, 300_000, seed).hits,
        [(sum(est.samples), fingerprint(est.samples)) for est in offspring],
        fingerprint(oriented.coupled_survival_matrix([0.5, 0.81], 120, 60, seed)),
    )


# the digest hashes the details of these outputs rounded to 4-6 digits,
# where a count that moved could hide; these pins hold them exactly
MONTE_CARLO_PINS = {
    1: (187771, 502, [(13902, "c2d782d02a253f09"), (3414, "ee976bd17c0bc52d"), (61, "14f8a5dbd4f8daf6")],
        "a127e743923bcc2e"),
    2: (187516, 502, [(14024, "f65af6b5c7865563"), (3476, "621e97eabd546a88"), (57, "39500531e66708f0")],
        "01bb341e5e1ce58a"),
}


@pytest.mark.parametrize("seed", sorted(MONTE_CARLO_PINS))
def test_monte_carlo_outputs_pinned(seed):
    assert verify_monte_carlo(seed) == MONTE_CARLO_PINS[seed]


def test_blocks_move_no_output(monkeypatch):
    # a block boundary every 7 rows of every kernel call; the geometry and
    # oriented suites run no blocked code
    monkeypatch.setattr(geometry, "_BLOCK", 7)
    for seed, pins in MONTE_CARLO_PINS.items():
        assert verify_monte_carlo(seed) == pins

    def blocked_checks(suite, seed):
        return verify.SUITES[suite](seed) if suite in ("measures", "branching") else suite_checks(suite, seed)

    assert registry_digest(blocked_checks) == REGISTRY_DIGEST


def test_verify_leaves_numpy_ma_unimported():
    # np.unique loads numpy.ma at its first call, about 15 ms and 1.3 MB of
    # a verify run: an op_step call alone, then every suite, leave it out
    script = ("import sys; import numpy as np; from stickperc import Frontier, op_step, verify\n"
              "op_step(Frontier(0, [0, 2, 0]), 0.5, 'bond', np.random.default_rng(1)); ma = 'numpy.ma' in sys.modules\n"
              "verify.run_suite('all', 1); print(ma, 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env())
    assert (run.returncode, run.stdout) == (0, "False False\n")


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


def test_site_within_bond_check_runs_the_program_site_rule(monkeypatch):
    # the check steps its frontiers through the update rule every oriented
    # path runs, not a copy of its own
    variants = []
    step = oriented._step

    def spy(sites, level, variant, opens):
        variants.append(variant)
        return step(sites, level, variant, opens)

    monkeypatch.setattr(oriented, "_step", spy)
    checks = {c.name: c.passed for c in verify.oriented_suite(1)}
    assert checks["site-within-bond-coupling"]
    assert "site" in variants

"""Acceptance suite: the reproduction targets at their stated scales.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them live).  These are the heavyweight runs; the whole test suite,
these included, takes about five minutes on a 2-core machine.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import checkout_env
from stickperc.branching import dominating_gw_run, offspring_mean_mc
from stickperc.measures import (
    cap_hit_lower_bound,
    cap_hit_probability_exact,
    gw_offspring_bound,
    mc_cap_hit_probability,
    mc_stick_hit_volume,
    stick_hit_volume,
    theorem_bounds,
)
from stickperc.oriented import coupled_survival_monotonicity, survival_probability
from stickperc.percolation import estimate_threshold, fit_weight, scaling_fit
from stickperc.rng import substream
from stickperc.sampling import Rigid, Uniform
from stickperc.verify import grid_oracle_errors, random_segments, separation_minimum

SEED = 20260810


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} - {detail}")


def _threshold_series(d, law, lengths, s_factor, replicates):
    out = []
    for L in lengths:
        est = estimate_threshold(d, float(L), law, s_factor * L, replicates=replicates, seed=SEED)
        out.append(est)
    return out


@pytest.fixture(scope="session")
def scaling_runs():
    runs = {}
    runs["uniform_d2"] = _threshold_series(2, Uniform(), [8, 16, 32, 64], 10.0, 200)
    runs["rigid_d2"] = _threshold_series(
        2, Rigid(np.array([0.0, 1.0])), [8, 16, 32, 64], 10.0, 200
    )
    runs["uniform_d3"] = _threshold_series(3, Uniform(), [8, 16, 32], 8.0, 100)
    return runs


def _fit(estimates):
    return scaling_fit([(e.length, e.lambda_hat, fit_weight(e)) for e in estimates])


def test_criterion_1_uniform_d2_scaling(scaling_runs):
    ests = scaling_runs["uniform_d2"]
    fit = _fit(ests)
    detail = (
        f"uniform d=2 slope {fit.slope:.3f} (target [-2.2, -1.8]); "
        + " ".join(f"L={e.length:g}: {e.lambda_hat:.4g}" for e in ests)
    )
    passed = -2.2 <= fit.slope <= -1.8
    report(1, passed, detail)
    assert passed, detail


def test_long_sticks_reach_criterion_1_band():
    """Why criterion 1 is red: at L = 8-64 the isotropic d = 2 slope is
    bent by the O(L) and O(1) terms of the excluded area, and at L = 64-512
    it lies in the band.  R(L) is lambda_hat times the mean excluded area
    (2/pi) L^2 + 8 L + 4 pi of two sticks.  It is reported, not compared
    with the widthless-stick value 3.589: the window bias at side 10 L,
    about 1.4%, is wider than the estimates' interval."""
    lengths = [64, 128, 256, 512]
    ests = [estimate_threshold(2, float(L), Uniform(), 10.0 * L, 200, SEED, workers=2) for L in lengths]
    fit = _fit(ests)
    ratios = [e.lambda_hat * ((2.0 / np.pi) * e.length**2 + 8.0 * e.length + 4.0 * np.pi) for e in ests]
    detail = f"uniform d=2 slope {fit.slope:.3f} +- {fit.stderr:.3f} at L = 64-512 (target [-2.2, -1.8]); " + " ".join(
        f"R({e.length:g}) = {r:.3f}" for e, r in zip(ests, ratios)
    )
    print(detail)
    assert -2.2 <= fit.slope <= -1.8, detail


def test_criterion_2_rigid_d2_scaling(scaling_runs):
    ests = scaling_runs["rigid_d2"]
    fit = _fit(ests)
    detail = (
        f"rigid d=2 slope {fit.slope:.3f} (target [-1.2, -0.8]); "
        + " ".join(f"L={e.length:g}: {e.lambda_hat:.4g}" for e in ests)
    )
    passed = -1.2 <= fit.slope <= -0.8
    report(2, passed, detail)
    assert passed, detail


def test_criterion_3_uniform_d3_scaling(scaling_runs):
    ests = scaling_runs["uniform_d3"]
    fit = _fit(ests)
    detail = (
        f"uniform d=3 slope {fit.slope:.3f} (target [-2.35, -1.65]); "
        + " ".join(f"L={e.length:g}: {e.lambda_hat:.4g}" for e in ests)
    )
    passed = -2.35 <= fit.slope <= -1.65
    report(3, passed, detail)
    assert passed, detail


def test_criterion_4_theorem_brackets(scaling_runs):
    checks = []
    for key, law in [("uniform_d2", "uniform"), ("rigid_d2", "rigid"), ("uniform_d3", "uniform")]:
        for est in scaling_runs[key]:
            bounds = theorem_bounds(est.d, est.length, law, strict=False)
            checks.append(bounds.lower < est.lambda_hat < bounds.upper)
    passed = all(checks)
    report(4, passed, f"{sum(checks)}/{len(checks)} estimates strictly inside their brackets")
    assert passed


def test_criterion_5_segment_ball_volume_mc():
    cases = [(2, 10.0), (3, 10.0), (4, 8.0)]
    details = []
    passed = True
    for d, L in cases:
        est = mc_stick_hit_volume(d, L, 2.0, 1_000_000, seed=SEED + d)
        target = stick_hit_volume(d, L, 2.0)
        dev = abs(est.value - target)
        ok = dev <= 3.0 * est.stderr and dev <= 0.01 * target
        passed &= ok
        details.append(f"(d={d},L={L:g}): mc {est.value:.4g} vs {target:.4g} ({dev/target:.2%})")
    report(5, passed, "; ".join(details))
    assert passed, details


def test_criterion_6_cap_hitting():
    rng = substream(SEED, 6)
    passed = True
    worst = 0.0
    for k in range(20):
        d = int(rng.integers(2, 6))
        r = float(rng.uniform(1.2, 20.0))
        rho = float(rng.uniform(0.1, 0.9) * r)
        est = mc_cap_hit_probability(d, rho, r, 300_000, seed=SEED + 100 + k)
        exact = cap_hit_probability_exact(d, rho, r)
        dev = abs(est.value - exact)
        worst = max(worst, dev / max(est.stderr, 1e-12))
        passed &= dev <= 3.0 * est.stderr
    violations = 0
    for _ in range(10_000):
        d = int(rng.integers(2, 9))
        r = float(rng.uniform(1.05, 60.0))
        rho = float(rng.uniform(0.02, 0.98) * r)
        if cap_hit_lower_bound(d, rho, r) > cap_hit_probability_exact(d, rho, r) + 1e-12:
            violations += 1
    passed &= violations == 0
    report(6, passed, f"direction-MC max dev {worst:.2f} sigma over 20 cases; bound violations {violations}/10000")
    assert passed


def test_criterion_7_geometry_oracles():
    rng = substream(SEED, 7)
    worst = 0.0
    for d in (2, 3, 4, 5):
        done = 0
        while done < 500:
            dims = np.full(500 - done, d)
            a = random_segments(rng, dims, 3.0, (0.5, 5.0))
            b = random_segments(rng, dims, 3.0, (0.5, 5.0))
            errors = grid_oracle_errors(a, b, steps=2000)
            worst = max(worst, float(errors.max(initial=0.0)))
            done += errors.size
    grid_ok = worst <= 1e-4

    n_cases = 100_000
    low = separation_minimum(rng, n_cases, 30.0)
    window_ok = low >= 6.0
    passed = grid_ok and window_ok
    report(
        7,
        passed,
        f"segment grid max abs err {worst:.2e} (tol 1e-4); window min {low:.4f} over {n_cases} (>= 6)",
    )
    assert passed


def test_criterion_8_offspring():
    details = []
    passed = True

    # (a) rigid empirical mean matches the doubled-capsule volume
    for d in (2, 3):
        axis = np.zeros(d)
        axis[1] = 1.0
        for L in (10.0, 20.0):
            target_vol = stick_hit_volume(d, 2.0 * L, 2.0)
            lam = 4.0 / target_vol
            est = offspring_mean_mc(d, L, lam, Rigid(axis), 4000, seed=SEED + int(L) + d)
            ok = abs(est.mean - lam * target_vol) <= 3.0 * est.stderr
            passed &= ok
            details.append(f"a(d={d},L={L:g}):{'ok' if ok else 'FAIL'}")

    # (b) uniform empirical mean below the closed-form bound everywhere tested
    for d, L in [(2, 16.0), (2, 32.0), (3, 16.0), (4, 8.0)]:
        # a few dozen sticks per trial regardless of dimension
        box_vol = (3 * L + 8) * (2 * L + 8) ** (d - 1)
        lam = 50.0 / box_vol
        est = offspring_mean_mc(d, L, lam, Uniform(), 2500, seed=SEED + 31 * d + int(L))
        bound = gw_offspring_bound(d, L, lam, "uniform")
        ok = est.mean <= bound + 3.0 * est.stderr
        passed &= ok
        details.append(f"b(d={d},L={L:g}):{'ok' if ok else 'FAIL'}")

    # (c) subcritical pivot and (d) dominating-GW extinction there
    for d, L in [(2, 32.0), (2, 64.0), (3, 32.0)]:
        lam = theorem_bounds(d, L, "uniform", strict=False).lower
        est = offspring_mean_mc(d, L, lam, Uniform(), 3000, seed=SEED + 7 * d + int(L))
        ok_c = est.mean + 3.0 * est.stderr < 1.0
        extinct = sum(
            1
            for k in range(1000)
            if dominating_gw_run(est.samples, 100, 1_000_000, seed=SEED + k).extinct
        )
        ok_d = extinct == 1000
        passed &= ok_c and ok_d
        details.append(
            f"c(d={d},L={L:g}): mean {est.mean:.3f}{'ok' if ok_c else 'FAIL'}; gw {extinct}/1000"
        )

    report(8, passed, "; ".join(details))
    assert passed, details


def test_criterion_9_oriented():
    sup = survival_probability(0.81, "bond", 500, 500, seed=SEED)
    sub_bond = survival_probability(0.50, "bond", 500, 500, seed=SEED + 1)
    sub_site = survival_probability(0.50, "site", 500, 500, seed=SEED + 2)
    mono = coupled_survival_monotonicity([0.5, 0.7, 0.81, 0.95], 500, 200, seed=SEED + 3)
    passed = (
        sup.fraction > 0.2
        and sub_bond.survivors == 0
        and sub_site.survivors == 0
        and mono
    )
    report(
        9,
        passed,
        f"bond a=0.81 survival {sup.fraction:.3f} (> 0.2); "
        f"bond a=0.5 {sub_bond.survivors}/500; site a=0.5 {sub_site.survivors}/500; "
        f"coupled monotone {mono}",
    )
    assert passed


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "stickperc.cli", *args], capture_output=True, text=True, env=checkout_env()
    )
    return proc.returncode, proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["bounds", "--d", "2", "--L", "100", "--law", "rigid"],
        ["threshold", "--d", "2", "--L", "8", "--law", "rigid", "--s-factor", "8",
         "--replicates", "20", "--max-bisect", "3", "--seed", "1"],
        ["scaling", "--d", "2", "--law", "rigid", "--L-list", "8,12,16", "--s-factor", "8",
         "--replicates", "10", "--max-bisect", "2", "--seed", "1"],
        ["branching", "--d", "2", "--L", "10", "--lambda", "0.05", "--law", "rigid",
         "--trials", "400", "--gw-runs", "50", "--seed", "1"],
        ["oriented", "--alpha", "0.81", "--variant", "bond", "--n-max", "80",
         "--trials", "60", "--seed", "1"],
        ["measure-mc", "--d", "2", "--L", "256", "--trials", "50000", "--seed", "1"],
        ["verify", "--suite", "branching", "--seed", "1"],
    ]
    passed = True
    details = []
    for args in commands:
        rc1, out1 = _run_cli(args)
        rc2, out2 = _run_cli(args)
        ok = rc1 == rc2 == 0 and out1 == out2 and out1
        passed &= bool(ok)
        details.append(f"{args[0]}:{'ok' if ok else 'FAIL'}")
    # worker count must not change output bytes
    base = ["threshold", "--d", "2", "--L", "8", "--law", "rigid", "--s-factor", "8",
            "--replicates", "16", "--max-bisect", "2", "--seed", "2"]
    _, out_w1 = _run_cli(base + ["--workers", "1"])
    _, out_w2 = _run_cli(base + ["--workers", "2"])
    workers_ok = out_w1 == out_w2 and out_w1
    passed &= bool(workers_ok)
    details.append(f"workers:{'ok' if workers_ok else 'FAIL'}")
    report(10, passed, "; ".join(details))
    assert passed, details

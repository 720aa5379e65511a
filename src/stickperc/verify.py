"""Seeded self-verification suites run by the ``verify`` CLI subcommand.

Each suite returns a list of (name, passed, detail) checks covering the
module's core identities and couplings at a scale that runs in seconds.
The heavyweight reproduction runs live in the acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import branching, geometry, measures, oriented
from .geometry import Segment
from .rng import substream
from .sampling import Rigid, Uniform


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def grid_segment_distance(a: Segment, b: Segment, steps: int) -> float:
    """Parameter-grid minimum distance between two segments.

    Scans a steps x steps grid over the full parameter rectangle, 500 rows
    at a time; an upper bound on the true minimum, tight to O(grid step
    squared) away from degenerate near-contact pairs.
    """
    t = np.linspace(-a.half, a.half, steps)
    tau = np.linspace(-b.half, b.half, steps)
    u = a.center - b.center
    c = float(a.direction @ b.direction)
    up = float(u @ a.direction)
    uq = float(u @ b.direction)
    uu = float(u @ u)
    col = tau * tau - 2.0 * tau * uq
    best = np.inf
    for lo in range(0, steps, 500):
        tt = t[lo : lo + 500]
        f = (
            (tt * tt + 2.0 * tt * up)[:, None]
            + col[None, :]
            - 2.0 * c * tt[:, None] * tau[None, :]
            + uu
        )
        best = min(best, float(f.min()))
    return float(np.sqrt(max(best, 0.0)))


def geometry_suite(seed: int) -> list[Check]:
    rng = substream(seed, 0x6E0)
    checks = []

    # quadratic shift identity around the two-line minimizer
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        x, y = rng.normal(0, 5, d), rng.normal(0, 5, d)
        p, q = random_unit(rng, d), random_unit(rng, d)
        if 1.0 - float(p @ q) ** 2 < 1e-6:
            continue
        t_min = geometry.line_line_t_min(x, p, y, q)
        h_min = geometry.line_line_distance_profile(x, p, y, q, t_min)
        a = float(rng.normal(0, 10))
        lhs = geometry.line_line_distance_profile(x, p, y, q, t_min + a)
        rhs = h_min + a * a * (1.0 - float(p @ q) ** 2)
        worst = max(worst, abs(lhs - rhs) / (1.0 + a * a))
    checks.append(Check("quadratic-shift-identity", worst <= 1e-9, f"max scaled deviation {worst:.3g}"))

    # symmetry and rigid-motion invariance of the segment distance
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a = Segment(rng.normal(0, 4, d), random_unit(rng, d), float(rng.uniform(0.5, 8)))
        b = Segment(rng.normal(0, 4, d), random_unit(rng, d), float(rng.uniform(0.5, 8)))
        dist = geometry.segment_segment_distance(a, b)
        worst = max(worst, abs(dist - geometry.segment_segment_distance(b, a)))
        rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
        shift = rng.normal(0, 10, d)
        a2 = Segment(rot @ a.center + shift, rot @ a.direction, a.length)
        b2 = Segment(rot @ b.center + shift, rot @ b.direction, b.length)
        worst = max(worst, abs(dist - geometry.segment_segment_distance(a2, b2)))
    checks.append(Check("segment-distance-invariance", worst <= 1e-9, f"max deviation {worst:.3g}"))

    # closed form vs parameter-grid oracle
    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        a = Segment(rng.normal(0, 2, d), random_unit(rng, d), float(rng.uniform(0.5, 5)))
        b = Segment(rng.normal(0, 2, d), random_unit(rng, d), float(rng.uniform(0.5, 5)))
        closed = geometry.segment_segment_distance(a, b)
        if closed < 0.1:
            continue
        worst = max(worst, abs(closed - grid_segment_distance(a, b, 500)))
    checks.append(Check("segment-distance-grid-oracle", worst <= 2e-3, f"max |closed - grid| {worst:.3g}"))

    # separation property: distance outside a width-12 window stays >= 6
    n_cases = 10_000
    low = math.inf
    for _ in range(n_cases):
        d = int(rng.integers(2, 5))
        while True:
            p, q = random_unit(rng, d), random_unit(rng, d)
            if abs(float(p @ q)) <= 1.0 / math.sqrt(2.0):
                break
        t1, tau1 = rng.normal(0, 20), rng.normal(0, 20)
        anchor = rng.normal(0, 20, d)
        offset = rng.uniform(0, 2) * random_unit(rng, d)
        x = anchor - t1 * p
        y = anchor + offset - tau1 * q
        low = min(low, geometry.min_distance_outside_window(x, p, y, q, t1, tau1, 12.0))
    checks.append(Check("separation-window-bound", low >= 6.0, f"min over {n_cases} instances {low:.6g}"))
    return checks


def measures_suite(seed: int) -> list[Check]:
    rng = substream(seed, 0x6E1)
    checks = []

    # the exact cap probability is int_0^asin(rho/r) sin^(d-2) over the same
    # integral on [0, pi/2].  Composite Simpson with step h errs by at most
    # (b - a) h^4 max|f^(4)| / 180, and |f^(4)| <= k^4 for f = sin^k, a sum of
    # frequencies <= k with weights summing to 1.  With 2048 panels of width
    # h <= pi/4096 and k = d - 2 <= 6 that is at most 3.9e-12 per integral;
    # the denominator is at least int_0^(pi/2) sin^6 = 5 pi / 32, so the
    # ratio errs by at most 1.6e-11.
    weights = np.ones(2048 + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0

    def simpson(k, upper):
        f = np.sin(np.linspace(0.0, upper, weights.size)) ** k
        return upper / (3 * 2048) * float(weights @ f)

    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        r = float(rng.uniform(1.1, 50))
        rho = float(rng.uniform(0.05, 0.95) * r)
        quad = simpson(d - 2, math.asin(rho / r)) / simpson(d - 2, 0.5 * math.pi)
        worst = max(worst, abs(measures.cap_hit_probability_exact(d, rho, r) - quad))
    checks.append(Check("cap-hit-quadrature", worst <= 2e-11, f"max |exact - quadrature| {worst:.3g}"))

    ok = True
    worst_pair = ""
    for _ in range(2000):
        d = int(rng.integers(2, 9))
        r = float(rng.uniform(1.1, 50))
        rho = float(rng.uniform(0.05, 0.95) * r)
        lower = measures.cap_hit_lower_bound(d, rho, r)
        exact = measures.cap_hit_probability_exact(d, rho, r)
        if lower > exact + 1e-12:
            ok = False
            worst_pair = f"d={d} rho={rho:.4g} r={r:.4g}"
    checks.append(Check("cap-bound-below-exact", ok, worst_pair or "no violations in 2000 draws"))

    est = measures.mc_stick_hit_volume(2, 10.0, 2.0, Uniform(), 200_000, seed)
    target = measures.stick_hit_volume(2, 10.0, 2.0)
    dev = abs(est.value - target)
    checks.append(
        Check(
            "segment-ball-volume-mc",
            dev <= 3.0 * est.stderr,
            f"closed {target:.6g} mc {est.value:.6g} (3se {3*est.stderr:.3g})",
        )
    )

    dev = max(
        abs(measures.stick_hit_volume(d, 0.0, rho) - measures.ball_volume(d, rho))
        for d, rho in [(2, 1.0), (3, 2.0), (5, 0.7)]
    )
    checks.append(Check("zero-length-reduces-to-ball", dev <= 1e-12, f"max abs error {dev:.3g}"))

    ok = True
    for d in range(2, 7):
        for law in ("uniform", "rigid"):
            rep = measures.theorem_bounds(d, 500.0 * math.sqrt(d), law)
            ok &= rep.lower < rep.upper
    checks.append(Check("bracket-ordering", ok, "lower < upper over d in 2..6"))

    worst = 0.0
    for d in range(2, 7):
        L = 100.0 * math.sqrt(d)
        lam = measures.theorem_bounds(d, L, "uniform", strict=False).lower
        bound = measures.gw_offspring_bound(d, L, lam, "uniform")
        worst = max(worst, abs(bound - 1.0))
    checks.append(Check("offspring-bound-pivot", worst <= 1e-12, f"max |bound(lower) - 1| {worst:.3g}"))

    geom = measures.ConstructionGeometry(2, 256.0)
    gamma = geom.box_center((-2, 0))
    zeta = geom.right_face_center((0, 0))
    est = measures.mc_two_ball_measure(2, 256.0, gamma, zeta, Uniform(), 300_000, seed)
    bound = measures.two_ball_lower_bound(2, 256.0, delta=1.0)
    checks.append(
        Check(
            "two-ball-measure-above-bound",
            est.value + 3.0 * est.stderr >= bound,
            f"mc {est.value:.6g} bound {bound:.6g}",
        )
    )
    return checks


def branching_suite(seed: int) -> list[Check]:
    checks = []
    e2 = np.array([0.0, 1.0])

    est = branching.offspring_mean_mc(
        2, 10.0, 0.1, Rigid(e2), Segment(np.zeros(2), e2, 10.0), 1500, seed
    )
    target = 0.1 * measures.stick_hit_volume(2, 20.0, 2.0)
    checks.append(
        Check(
            "rigid-offspring-identity",
            abs(est.mean - target) <= 3.0 * est.stderr,
            f"mc {est.mean:.4f} exact {target:.4f} (3se {3*est.stderr:.3g})",
        )
    )

    law = Uniform()
    est = branching.offspring_mean_mc(
        2, 20.0, 0.01, law, Segment(np.zeros(2), np.array([1.0, 0.0]), 20.0), 800, seed
    )
    bound = measures.gw_offspring_bound(2, 20.0, 0.01, "uniform")
    checks.append(
        Check(
            "uniform-offspring-below-bound",
            est.mean <= bound + 3.0 * est.stderr,
            f"mc {est.mean:.4f} bound {bound:.4f}",
        )
    )

    L = 32.0
    lam = measures.theorem_bounds(2, L, "uniform", strict=False).lower
    est = branching.offspring_mean_mc(
        2, L, lam, law, Segment(np.zeros(2), np.array([1.0, 0.0]), L), 600, seed
    )
    checks.append(
        Check(
            "subcritical-pivot",
            est.mean + 3.0 * est.stderr < 1.0,
            f"mean {est.mean:.4f} + 3se {3*est.stderr:.3g} < 1",
        )
    )

    ok = True
    for run in range(30):
        res = branching.component_exploration(
            2, 16.0, 0.5 * lam, law,
            Segment(np.zeros(2), np.array([1.0, 0.0]), 16.0),
            max_generations=12, population_cap=20_000, seed=seed + run,
        )
        pairs = zip(res.generation_sizes, res.dominating_sizes)
        ok &= all(actual <= dom for actual, dom in pairs)
    checks.append(Check("exploration-dominated-by-gw", ok, "actual generation sizes <= coupled GW sizes, 30 runs"))
    return checks


def oriented_suite(seed: int) -> list[Check]:
    checks = []
    rng = substream(seed, 0x6E2)

    empty = oriented.Frontier(3, np.empty(0, dtype=np.int64))
    stepped = oriented.op_step(empty, 0.9, "bond", rng)
    checks.append(Check("extinction-absorbing", not stepped.alive, "empty frontier stays empty"))

    frontier = oriented.Frontier.origin()
    ok = True
    for _ in range(60):
        frontier = oriented.op_step(frontier, 0.85, "bond", rng)
        if frontier.occupied.size and (
            frontier.occupied.min() < -frontier.level or frontier.occupied.max() > frontier.level
        ):
            ok = False
        if not frontier.alive:
            break
    checks.append(Check("frontier-support-bound", ok, "A_n within [-n, n]"))

    alpha = 0.7
    steps = 20_000
    # parents 4 apart have disjoint children: left ones at 3 mod 4, right ones at 1 mod 4
    parents = oriented.Frontier(0, 4 * np.arange(steps))
    residues = oriented.op_step(parents, alpha, "bond", rng).occupied % 4
    counts = np.array([np.count_nonzero(residues == 3), np.count_nonzero(residues == 1)])
    se = math.sqrt(alpha * (1 - alpha) / steps)
    dev = float(np.max(np.abs(counts / steps - alpha)))
    checks.append(Check("bond-child-frequency", dev <= 3 * se, f"max |freq - alpha| {dev:.4g} (3se {3*se:.4g})"))

    mono = oriented.coupled_survival_monotonicity([0.5, 0.81], "bond", 120, 60, seed)
    checks.append(Check("coupled-monotone-in-alpha", mono, "survival non-decreasing in alpha, 60 trials"))

    ok = True
    for t in range(200):
        level = int(rng.integers(0, 50))
        width = int(rng.integers(1, 20))
        sites = np.unique(rng.integers(-30, 30, width) * 2 + (level % 2))
        frontier = oriented.Frontier(level, sites)
        site_f, bond_f = oriented.coupled_variant_step(frontier, 0.7, seed + t)
        if not set(site_f.occupied).issubset(set(bond_f.occupied)):
            ok = False
    checks.append(Check("site-within-bond-coupling", ok, "site children subset of bond children, 200 frontiers"))
    return checks


SUITES = {
    "geometry": geometry_suite,
    "measures": measures_suite,
    "branching": branching_suite,
    "oriented": oriented_suite,
}


def run_suite(suite: str, seed: int) -> list[Check]:
    if suite == "all":
        return [check for run in SUITES.values() for check in run(seed)]
    return SUITES[suite](seed)

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
from .rng import substream
from .sampling import Rigid, Uniform, check_choice, check_seed


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _embedded(z, dims):
    # row i keeps its first dims[i] coordinates and is 0 beyond them
    z[np.arange(z.shape[1]) >= dims[:, None]] = 0.0
    return z


def random_units(rng, dims):
    """One random unit vector per entry of ``dims``: row i is uniform on the
    unit sphere of the first dims[i] coordinates of R^max(dims)."""
    z = _embedded(rng.standard_normal((dims.size, dims.max())), dims)
    return z / np.sqrt(np.einsum("ij,ij->i", z, z))[:, None]


def random_segments(rng, dims, spread, lengths):
    """Arrays (centers, directions, lengths) of one random segment per entry
    of ``dims``, laid out as in ``random_units``: centers N(0, spread),
    uniform directions, lengths uniform on the interval ``lengths``."""
    centers = _embedded(rng.normal(0.0, spread, (dims.size, dims.max())), dims)
    return centers, random_units(rng, dims), rng.uniform(*lengths, dims.size)


def grid_segment_distance(ca, da, la, cb, db, lb, steps: int) -> float:
    """Parameter-grid minimum distance between two segments, given as the
    rows ``segment_distance_arrays`` takes: centers, unit directions and
    lengths.

    The minimum of ||u + t p - tau q|| over a steps x steps grid on the full
    parameter rectangle; an upper bound on the true minimum, tight to O(grid
    step squared) away from degenerate near-contact pairs.  Each grid row is
    a convex quadratic in tau with its vertex at c t + <u,q>, so the row's
    grid minimum lies at one of the two grid points around that vertex, and
    only those are evaluated.
    """
    t = np.linspace(-0.5 * la, 0.5 * la, steps)
    tau = np.linspace(-0.5 * lb, 0.5 * lb, steps)
    u = ca - cb
    c = float(da @ db)
    up = float(u @ da)
    uq = float(u @ db)
    uu = float(u @ u)
    right = np.clip(np.searchsorted(tau, c * t + uq), 1, steps - 1)
    near = tau[np.stack([right - 1, right], axis=1)]
    f = (t * t + 2.0 * t * up)[:, None] + (near * near - 2.0 * near * uq) - 2.0 * c * t[:, None] * near + uu
    return float(np.sqrt(max(float(f.min()), 0.0)))


def grid_oracle_errors(a, b, steps: int) -> np.ndarray:
    """|kernel - grid| distance for each row pair of the segment arrays ``a``
    and ``b`` whose kernel distance is at least 0.1 (nearer pairs are too
    ill-conditioned for the grid)."""
    closed = geometry.segment_distance_arrays(*a, *b)
    rows = np.flatnonzero(closed >= 0.1)
    return np.array([
        abs(closed[i] - grid_segment_distance(*(v[i] for v in a), *(v[i] for v in b), steps)) for i in rows
    ])


def separation_minimum(rng, n_cases: int, spread: float) -> float:
    """Least distance outside the width-12 window over ``n_cases`` instances
    of the separation lemma, in dimensions 2..4.

    Each instance has unit directions with |<p,q>| <= 1/sqrt(2) and lines
    through points at most 2 apart, at parameters t1, tau1 ~ N(0, spread).
    Instances are drawn in blocks of 10,000, rejected by one mask on
    |<p,q>|, and each block is evaluated in one call.
    """
    low = math.inf
    while n_cases > 0:
        dims = rng.integers(2, 5, 10_000)
        p, q = random_units(rng, dims), random_units(rng, dims)
        offset = rng.uniform(0.0, 2.0, dims.size)[:, None] * random_units(rng, dims)
        anchor = _embedded(rng.normal(0.0, spread, p.shape), dims)
        t1, tau1 = rng.normal(0.0, spread, (2, dims.size))
        keep = np.flatnonzero(np.abs(np.einsum("ij,ij->i", p, q)) <= 1.0 / math.sqrt(2.0))[:n_cases]
        p, q, t1, tau1 = p[keep], q[keep], t1[keep], tau1[keep]
        x = anchor[keep] - t1[:, None] * p
        y = anchor[keep] + offset[keep] - tau1[:, None] * q
        low = min(low, float(geometry.min_distance_outside_window(x, p, y, q, t1, tau1, 12.0).min()))
        n_cases -= keep.size
    return low


def geometry_suite(seed: int) -> list[Check]:
    rng = substream(seed, 0x6E0)
    checks = []

    # quadratic shift identity around the two-line minimizer, on 200 draws
    # less those with nearly parallel lines
    dims = rng.integers(2, 6, 200)
    x, y = (_embedded(rng.normal(0.0, 5.0, (dims.size, dims.max())), dims) for _ in range(2))
    p, q = random_units(rng, dims), random_units(rng, dims)
    a = rng.normal(0.0, 10.0, dims.size)
    sin_sq = 1.0 - np.einsum("ij,ij->i", p, q) ** 2
    keep = sin_sq >= 1e-6
    x, p, y, q, a, sin_sq = x[keep], p[keep], y[keep], q[keep], a[keep], sin_sq[keep]
    t_min = geometry.line_line_t_min(x, p, y, q)
    h_min, lhs = geometry.line_line_distance_profile(x, p, y, q, np.stack([t_min, t_min + a]))
    worst = float(np.max(np.abs(lhs - h_min - a * a * sin_sq) / (1.0 + a * a), initial=0.0))
    checks.append(Check("quadratic-shift-identity", worst <= 1e-9, f"max scaled deviation {worst:.3g}"))

    # symmetry and rigid-motion invariance of the segment distance
    dims = rng.integers(2, 5, 100)
    a = random_segments(rng, dims, 4.0, (0.5, 8.0))
    b = random_segments(rng, dims, 4.0, (0.5, 8.0))
    dist = geometry.segment_distance_arrays(*a, *b)
    rot, _ = np.linalg.qr(rng.standard_normal((dims.size, dims.max(), dims.max())))
    shift = rng.normal(0, 10, (dims.size, dims.max()))

    def moved(s):
        centers, dirs, lengths = s
        return np.einsum("nij,nj->ni", rot, centers) + shift, np.einsum("nij,nj->ni", rot, dirs), lengths

    worst = max(
        float(np.abs(dist - geometry.segment_distance_arrays(*b, *a)).max()),
        float(np.abs(dist - geometry.segment_distance_arrays(*moved(a), *moved(b))).max()),
    )
    checks.append(Check("segment-distance-invariance", worst <= 1e-9, f"max deviation {worst:.3g}"))

    # the kernel vs the parameter-grid oracle
    dims = rng.integers(2, 5, 40)
    errors = grid_oracle_errors(
        random_segments(rng, dims, 2.0, (0.5, 5.0)), random_segments(rng, dims, 2.0, (0.5, 5.0)), 500
    )
    worst = float(errors.max(initial=0.0))
    checks.append(Check("segment-distance-grid-oracle", worst <= 2e-3, f"max |closed - grid| {worst:.3g}"))

    # separation property: distance outside a width-12 window stays >= 6
    n_cases = 10_000
    low = separation_minimum(rng, n_cases, 20.0)
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

    denominators = [simpson(k, 0.5 * math.pi) for k in range(7)]
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        r = float(rng.uniform(1.1, 50))
        rho = float(rng.uniform(0.05, 0.95) * r)
        quad = simpson(d - 2, math.asin(rho / r)) / denominators[d - 2]
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

    # d = 3 faces are nonempty from L = 256 sqrt(3) on
    grids = [(2, np.linspace(300, 5000, 40)), (3, np.linspace(760, 8000, 30))]
    short = [
        f"d={d} L={L:.6g}"
        for d, lengths in grids
        for L in lengths.tolist()
        if measures.lattice_T_count(d, L) < measures.lattice_T_count_bound(d, L)
    ]
    checks.append(
        Check("lattice-count-above-bound", not short, " ".join(short) or "enumerated >= closed form at 70 lengths")
    )

    est = measures.mc_two_ball_measure(2, 256.0, Uniform(), 300_000, seed)
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

    est = branching.offspring_mean_mc(2, 10.0, 0.1, Rigid(e2), 1500, seed)
    target = 0.1 * measures.stick_hit_volume(2, 20.0, 2.0)
    checks.append(
        Check(
            "rigid-offspring-identity",
            abs(est.mean - target) <= 3.0 * est.stderr,
            f"mc {est.mean:.4f} exact {target:.4f} (3se {3*est.stderr:.3g})",
        )
    )

    law = Uniform()
    est = branching.offspring_mean_mc(2, 20.0, 0.01, law, 800, seed)
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
    est = branching.offspring_mean_mc(2, L, lam, law, 600, seed)
    checks.append(
        Check(
            "subcritical-pivot",
            est.mean + 3.0 * est.stderr < 1.0,
            f"mean {est.mean:.4f} + 3se {3*est.stderr:.3g} < 1",
        )
    )

    ok = True
    for run in range(30):
        # run's seed is seed + run mod 2^64, the value derive_seed reads
        res = branching.component_exploration(
            2, 16.0, 0.5 * lam, law, max_generations=12, population_cap=20_000, seed=(seed + run) % 2**64,
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

    # 200 random frontiers, frontier t keyed by seed + t, stepped in one packed call
    levels, sites = [], []
    for _ in range(200):
        level = int(rng.integers(0, 50))
        count = int(rng.integers(1, 20))
        levels.append(level)
        sites.append(rng.integers(-30, 30, count) * 2 + (level % 2))
    run = np.repeat(np.arange(200), [x.size for x in sites])
    keys = [seed + t for t in range(200)]
    _, site, bond = oriented._coupled_steps(np.array(levels), keys, run, np.concatenate(sites), 0.7)
    ok = bool(np.isin(site, bond).all())
    checks.append(Check("site-within-bond-coupling", ok, "site children subset of bond children, 200 frontiers"))
    return checks


SUITES = {
    "geometry": geometry_suite,
    "measures": measures_suite,
    "branching": branching_suite,
    "oriented": oriented_suite,
}


def run_suite(suite: str, seed: int) -> list[Check]:
    suite = check_choice(suite, "suite", (*SUITES, "all"))
    seed = check_seed(seed)
    if suite == "all":
        return [check for run in SUITES.values() for check in run(seed)]
    return SUITES[suite](seed)

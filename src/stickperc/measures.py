"""Closed-form measures, theorem bounds, construction geometry and their
Monte Carlo verifiers.

The exact expressions here (segment-ball hitting volume, spherical-cap
hitting probability, the two-ball connection constant c_d, and the critical
intensity bounds for the uniform/bounded-density and rigid orientation
laws) are the quantitative backbone of the package; each one is paired with
an independent numeric check in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionViolated
from .geometry import _axis_dot, _ball_distance_sq, _blocks, check_radius, segments_hit_ball
from .rng import substream
from .sampling import (
    REAL_TYPES, BoxRegion, Uniform, check_choice, check_density_floor, check_dim, check_integer,
    check_intensity, check_length, check_real, check_seed, stream_sticks,
)

_STREAM_MEASURE_MC = 0x3EA5
# Monte Carlo draws per chunk: each chunk draws its arrays in turn, so the
# chunks fix the stream layout that the pinned hits read
_MC_CHUNK = 1_000_000
_FLOAT_MAX = sys.float_info.max

LAW_TAGS = ("uniform", "rigid", "density")


def ball_volume(d: int, rho: float) -> float:
    """Volume of the d-dimensional ball of radius rho."""
    d = check_dim(d)
    rho = check_real(rho, "radius", "[0, inf)")
    if rho == 0.0:
        return 0.0
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + d * math.log(rho))


def stick_hit_volume(d: int, length: float, rho: float) -> float:
    """Measure (per unit intensity) of segments of length ``length`` whose
    line segment hits a ball of radius rho: the volume of the radius-rho
    capsule, L * vol(B_{d-1}(rho)) + vol(B_d(rho)), the ball's at L = 0."""
    d = check_dim(d)
    rho = check_radius(rho)
    length = check_real(length, "stick length", "[0, inf)")
    cross_section = math.exp(
        0.5 * (d - 1) * math.log(math.pi) - math.lgamma(0.5 * (d + 1)) + (d - 1) * math.log(rho)
    )
    return length * cross_section + ball_volume(d, rho)


def check_cap(rho: float, r: float) -> None:
    """DomainError unless 0 < rho < r < inf: the cap of a ball of radius
    ``rho`` seen from a point at a finite distance ``r`` from its center.
    ``r`` must not exceed the largest float, so an int beyond the float
    range is refused too."""
    if not (isinstance(rho, REAL_TYPES) and isinstance(r, REAL_TYPES) and 0.0 < rho < r <= _FLOAT_MAX):
        raise DomainError(f"need 0 < rho < r < inf (point strictly outside the ball), got rho = {rho}, r = {r}")


def cap_hit_probability_exact(d: int, rho: float, r: float) -> float:
    """Probability that a uniformly oriented line through a point at distance
    ``r`` passes within ``rho`` of the center: J_{rho^2/r^2}((d-1)/2, 1/2).

    This equals the hitting probability of a length-L segment from the same
    point only when r < L/2 - rho; that reach condition is the caller's to
    check.

    With s = rho/r and c = sqrt(1 - s^2), J(1/2) = (2/pi) asin(s) and
    J(1) = 1 - c; the upward recurrence (DLMF 8.17.20)
    J(a + 1) = J(a) - c s^{2a} Gamma(a + 1/2) / (Gamma(a + 1) sqrt(pi))
    carries either one to a = (d-1)/2.
    """
    d = check_dim(d)
    check_cap(rho, r)
    s = rho / r
    c = math.sqrt((1.0 - s) * (1.0 + s))  # not 1 - s^2, which loses c near grazing
    if d % 2:
        a, value, term = 1.0, 1.0 - c, 0.5 * s * s
    else:
        a, value, term = 0.5, (2.0 / math.pi) * math.asin(s), (2.0 / math.pi) * s
    while a < 0.5 * (d - 1):
        value -= c * term  # term = s^{2a} Gamma(a + 1/2) / (Gamma(a + 1) sqrt(pi))
        term *= s * s * (a + 0.5) / (a + 1.0)
        a += 1.0
    return value


def cap_hit_lower_bound(d: int, rho: float, r: float) -> float:
    """Closed-form lower bound Gamma(d/2)/(sqrt(pi) Gamma((d+1)/2)) (rho/r)^{d-1};
    always below ``cap_hit_probability_exact``."""
    d = check_dim(d)
    check_cap(rho, r)
    log_c = math.lgamma(0.5 * d) - 0.5 * math.log(math.pi) - math.lgamma(0.5 * (d + 1))
    return math.exp(log_c + (d - 1) * math.log(rho / r))


def _exp_constant(log_value: float, name: str, d: int) -> float:
    """exp(log_value), the constant ``name`` at dimension d; DomainError
    where it leaves the positive floating-point range."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} leaves the floating-point range at d = {d}")
    return value


def _log_c_d(d: int) -> float:
    return (
        5.0 * (d - 2) * math.log(2.0)
        + (0.5 * d - 2.0) * math.log(math.pi)
        - 0.5 * math.log(d)
        + 3.0 * math.lgamma(0.5 * d)
        - math.lgamma(2.0 * d - 1.0)
    )


def _log_c_d_prime(d: int) -> float:
    return _log_c_d(d) - d * math.log(1000.0 * math.sqrt(d))


def c_d(d: int) -> float:
    """Two-ball connection constant:
    2^{5(d-2)} pi^{d/2-2} (1/sqrt(d)) Gamma(d/2)^3 / Gamma(2d-1)."""
    d = check_dim(d)
    return _exp_constant(_log_c_d(d), "c_d", d)


def c_d_prime(d: int) -> float:
    """Per-step success constant c_d / (1000 sqrt(d))^d."""
    d = check_dim(d)
    return _exp_constant(_log_c_d_prime(d), "c_d'", d)


@dataclass(frozen=True)
class BoundsReport:
    """Critical-intensity bracket for a given (d, L, law)."""

    d: int
    length: float
    law: str
    delta: float
    lower: float
    upper: float


def _law_tag(law) -> str:
    return check_choice(getattr(law, "tag", law), "law", LAW_TAGS)


def lower_bound_constant(d: int, law) -> float:
    d = check_dim(d)
    tag = _law_tag(law)
    if tag == "rigid":
        log_value = math.lgamma(0.5 * (d + 1)) - d * math.log(2.0) - 0.5 * d * math.log(math.pi)
    else:
        log_value = math.lgamma(0.5 * (d + 1)) - 0.5 * (d - 1) * math.log(math.pi) - d * math.log(2.0)
    return _exp_constant(log_value, f"the {tag} lower-bound constant", d)


def upper_bound_constant(d: int, law, delta: float = 1.0) -> float:
    d = check_dim(d)
    tag = _law_tag(law)
    if tag == "rigid":
        log_value = (
            math.log(4.0) + d * math.log(2.0) + math.lgamma(0.5 * (d + 1))
            - (0.5 * d - 1.0) * math.log(math.pi)
        )
        return _exp_constant(log_value, "the rigid upper-bound constant", d)
    # 20 (1000 sqrt d)^d sqrt(d) Gamma(2d-1) / (9 delta 2^{5(d-2)} pi^{d/2-2} Gamma(d/2)^3)
    log_value = math.log(20.0 / (9.0 * check_density_floor(delta))) - _log_c_d_prime(d)
    return _exp_constant(log_value, f"the {tag} upper-bound constant at delta = {delta}", d)


def bound_validity_threshold(d: int, law, side: str) -> float:
    """Smallest L (exclusive) at which the theorem bound applies."""
    d = check_dim(d)
    side = check_choice(side, "side", ("lower", "upper"))
    if _law_tag(law) == "rigid":
        return 3.0 if side == "lower" else 10.0
    return math.pi if side == "lower" else 200.0 * math.sqrt(d)


def check_bound_validity(d: int, length: float, law, side: str) -> float:
    """``length`` as a float; PreconditionViolated unless it is in the
    ``side`` bound's range, L > its validity threshold."""
    threshold = bound_validity_threshold(d, law, side)
    length = check_length(length)
    if not length > threshold:
        raise PreconditionViolated(f"{_law_tag(law)} {side} bound requires L > {threshold:.6g}, got L = {length:.6g}")
    return length


def theorem_bounds(d: int, length: float, law, delta: float = 1.0, strict: bool = True) -> BoundsReport:
    """Evaluate the critical-intensity bracket for (d, L, law).

    With ``strict`` (the default) the stated L-validity thresholds are hard
    preconditions; ``strict=False`` evaluates the formulas anyway, as the
    threshold estimator, the ``bounds`` command and verify do: the upper
    bound's range, L > 200 sqrt(d), lies above every length they run at.
    ``delta`` is the density floor of the ``density`` law; it must satisfy
    0 < delta <= 1 for every law, used or not.  A constant or bracket that
    leaves the positive floating-point range raises DomainError.
    """
    d = check_dim(d)
    tag = _law_tag(law)
    length = check_length(length)
    delta = check_density_floor(delta)
    if tag == "uniform":
        delta = 1.0
    if strict:
        for side in ("lower", "upper"):
            check_bound_validity(d, length, tag, side)
    upper_constant = upper_bound_constant(d, tag, delta)
    exponent = 1.0 if tag == "rigid" else 2.0
    try:
        scale = length ** (-exponent)
    except OverflowError:
        scale = math.inf
    lower = lower_bound_constant(d, tag) * scale
    upper = upper_constant * scale
    if not (lower > 0.0 and upper < math.inf):
        raise DomainError(f"bracket leaves the floating-point range at L = {length}")
    return BoundsReport(
        d=d,
        length=length,
        law=tag,
        delta=delta,
        lower=lower,
        upper=upper,
    )


def gw_offspring_bound(d: int, length: float, intensity: float, law) -> float:
    """Closed-form upper bound on the expected number of sticks hitting a
    fixed stick (the branching-process offspring mean); valid where the
    lower bound is."""
    length = check_length(length)
    intensity = check_intensity(intensity)
    check_bound_validity(d, length, law, "lower")
    exponent = 1 if _law_tag(law) == "rigid" else 2
    return intensity * length**exponent / lower_bound_constant(d, law)


@dataclass(frozen=True)
class ConstructionGeometry:
    """Geometry of the block construction used for the upper-bound coupling.

    Boxes D^u sit on a two-dimensional sublattice with spacing L/4 and side
    L/(8 sqrt d); boundary faces are inset by 16 and carry anchor lattices
    of spacing 12.  The per-step success constants additionally need the
    uniform upper-bound validity range; only the lattice counting enforces
    that here.
    """

    d: int
    length: float
    face_inset = 16.0
    lattice_spacing = 12.0

    def __post_init__(self):
        object.__setattr__(self, "d", check_dim(self.d))
        object.__setattr__(self, "length", check_length(self.length))

    @property
    def half_side(self) -> float:
        return self.length / (16.0 * math.sqrt(self.d))

    @property
    def spacing(self) -> float:
        return self.length / 4.0

    def box_center(self, u) -> np.ndarray:
        center = np.zeros(self.d)
        center[0] = u[0] * self.spacing
        center[1] = u[1] * self.spacing
        return center

    def box(self, u) -> BoxRegion:
        c = self.box_center(u)
        return BoxRegion(c - self.half_side, c + self.half_side)

    def right_face_center(self, u) -> np.ndarray:
        c = self.box_center(u)
        c[0] += self.half_side
        return c


def lattice_T_count(d: int, length: float) -> int:
    """Exact number of anchor-lattice points on the inset top face of
    D^(0,2), valid in the uniform upper-bound range.

    The face is centred on 0 along each of its d - 1 free axes, with half
    side L/(16 sqrt d) - 16, so each axis holds the same multiples of the
    lattice spacing 12.
    """
    check_bound_validity(d, length, "uniform", "upper")
    geom = ConstructionGeometry(d, length)
    margin = geom.half_side - geom.face_inset
    if margin < 0.0:
        return 0
    return (2 * math.floor(margin / geom.lattice_spacing + 1e-12) + 1) ** (geom.d - 1)


def lattice_T_count_bound(d: int, length: float) -> float:
    """Closed-form lower bound (L/(96 sqrt d) - 4)^{d-1} for the count, in
    the count's range."""
    length = check_bound_validity(d, length, "uniform", "upper")
    d = check_dim(d)
    return (length / (96.0 * math.sqrt(d)) - 4.0) ** (d - 1)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    trials: int
    hits: int


def _mc_fraction(trials: int, seed: int, stream: int, scale: float, count_hits) -> MCEstimate:
    """``scale`` times the hit fraction of ``trials`` draws, with its
    binomial standard error.  ``count_hits(rng, n)`` makes n draws from the
    estimator's own measure substream and returns how many hit; it is called
    on chunks of at most ``_MC_CHUNK`` draws, which fix the stream layout."""
    trials = check_integer(trials, "trials", 1)
    rng = substream(check_seed(seed), _STREAM_MEASURE_MC, stream)
    hits = sum(count_hits(rng, min(_MC_CHUNK, trials - done)) for done in range(0, trials, _MC_CHUNK))
    p = hits / trials
    se = scale * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return MCEstimate(value=scale * p, stderr=se, trials=trials, hits=hits)


def mc_stick_hit_volume(d: int, length: float, rho: float, trials: int, seed: int) -> MCEstimate:
    """Monte Carlo check of ``stick_hit_volume``, which no orientation law
    changes.

    Samples uniform orientations and centers uniformly in a box aligned
    with each orientation (a Householder frame), which tightly contains all
    centers whose segment can reach the ball; the estimate is box volume
    times hit fraction.

    A chunk is drawn whole, not streamed in blocks: its stream holds every
    direction before the centres, and a normal takes a variable number of
    words, so where the centres start is known only once every direction
    is drawn.  Verify's 200,000 draws peak at 7.6 MiB under ``tracemalloc``.
    """
    d = check_dim(d)
    length = check_length(length)
    rho = check_radius(rho)
    half_t = 0.5 * length + rho

    def count_hits(rng, n):
        p = Uniform().sample_directions(rng, d, n)
        local = rng.uniform(-rho, rho, size=(n, d))
        local[:, 0] = rng.uniform(-half_t, half_t, size=n)
        hits = 0
        for rows in _blocks(n):
            q, y = p[rows].T, local[rows].T
            # reflect e1 onto q: x = y - 2 v <v,y>/<v,v> with v = e1 - q
            v = [1.0 - q[0], *(-q[1:])]
            vv = _axis_dot(v, v)
            shift = np.where(vv > 1e-24, 2.0 * _axis_dot(v, y) / np.where(vv > 1e-24, vv, 1.0), 0.0)
            # the ball is centred at 0, so w = 0 - x
            w = [shift * v[k] - y[k] for k in range(d)]
            hits += int(np.count_nonzero(_ball_distance_sq(w, q, 0.5 * length) <= rho * rho))
        return hits

    box_volume = (2.0 * half_t) * (2.0 * rho) ** (d - 1)
    return _mc_fraction(trials, seed, 1, box_volume, count_hits)


def mc_cap_hit_probability(
    d: int, rho: float, r: float, trials: int, seed: int
) -> MCEstimate:
    """Direction Monte Carlo check of ``cap_hit_probability_exact``: place a
    point at distance r, draw uniform orientations, and test the actual
    segment-ball hit with a segment long enough to satisfy the reach
    condition."""
    d = check_dim(d)
    check_cap(rho, r)
    length = 2.0 * (r + rho + 1.0)
    x = np.zeros(d)
    x[0] = r

    def count_hits(rng, n):
        p = Uniform().sample_directions(rng, d, n)
        centers = np.broadcast_to(x, (n, d))
        return int(segments_hit_ball(centers, p, 0.5 * length, np.zeros(d), rho).sum())

    return _mc_fraction(trials, seed, 2, 1.0, count_hits)


def mc_two_ball_measure(d: int, length: float, trials: int, seed: int, intensity: float = 1.0) -> MCEstimate:
    """Monte Carlo estimate of the two-ball lemma's measure: segments
    centered in the middle construction box D^{(-1,0)} whose segment
    connects B(gamma, 2) and B(zeta, 2).

    The lemma's points are the construction's own: gamma the center of
    D^{(-2,0)} and zeta the center of the right face of D^o.  The lemma
    takes zeta on the face inset by 16, which is empty below
    L = 256 sqrt(d) (the half side L/(16 sqrt d) is then under the inset)
    and shrinks to the face center as L comes down to it; below, the face
    center stands in for it.  Needs L > 32.  Centers are sampled uniformly
    in D^{(-1,0)}, orientations from the uniform law; the estimate is
    intensity * Vol(D) * hit fraction, to be compared against
    intensity * delta * c_d * L^{2-d}.
    """
    d = check_dim(d)
    intensity = check_intensity(intensity)
    geom = ConstructionGeometry(d, length)
    if not length > 32.0:
        raise PreconditionViolated("two-ball measure requires L > 32")
    gamma = geom.box_center((-2, 0))
    zeta = geom.right_face_center((0, 0))
    box = geom.box((-1, 0))
    volume = box.volume
    if not math.isfinite(volume):
        raise DomainError(f"construction box volume overflows at L = {length}")

    def count_hits(rng, n):
        hits, h = 0, 0.5 * length
        for _, x, p in stream_sticks(d, Uniform(), box, rng, n):
            # each row's test is its own, so zeta is tested only where gamma hit
            near = np.flatnonzero(segments_hit_ball(x, p, h, gamma, 2.0))
            hits += int(np.count_nonzero(segments_hit_ball(x[near], p[near], h, zeta, 2.0)))
        return hits

    return _mc_fraction(trials, seed, 3, intensity * volume, count_hits)


def two_ball_lower_bound(d: int, length: float, delta: float, intensity: float = 1.0) -> float:
    """The two-ball lemma lower bound intensity * delta * c_d * L^{2-d}."""
    d = check_dim(d)
    length = check_length(length)
    return check_intensity(intensity) * check_density_floor(delta) * c_d(d) * length ** (2 - d)

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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionViolated
from .geometry import segments_hit_ball
from .rng import substream
from .sampling import (
    BoxRegion, OrientationLaw, Rigid, Uniform, check_density_floor, check_dim, check_intensity, check_length,
    place_sticks,
)

_STREAM_MEASURE_MC = 0x3EA5
_MC_CHUNK = 1_000_000  # Monte Carlo draws per batch, to bound memory

LAW_TAGS = ("uniform", "rigid", "density")


def ball_volume(d: int, rho: float) -> float:
    """Volume of the d-dimensional ball of radius rho."""
    d = check_dim(d)
    if rho < 0.0:
        raise DomainError("radius must be nonnegative")
    if rho == 0.0:
        return 0.0
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + d * math.log(rho))


def stick_hit_volume(d: int, length: float, rho: float) -> float:
    """Measure (per unit intensity) of segments of length ``length`` whose
    line segment hits a ball of radius rho: the volume of the radius-rho
    capsule, L * vol(B_{d-1}(rho)) + vol(B_d(rho))."""
    d = check_dim(d)
    if rho <= 0.0:
        raise DomainError("radius must be positive")
    if length < 0.0:
        raise DomainError("length must be nonnegative")
    cross_section = math.exp(
        0.5 * (d - 1) * math.log(math.pi) - math.lgamma(0.5 * (d + 1)) + (d - 1) * math.log(rho)
    )
    return length * cross_section + ball_volume(d, rho)


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
    if not (0.0 < rho < r):
        raise DomainError("need 0 < rho < r (point strictly outside the ball)")
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
    if not (0.0 < rho < r):
        raise DomainError("need 0 < rho < r")
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
    tag = getattr(law, "tag", law)
    if tag not in LAW_TAGS:
        raise DomainError(f"unknown law tag {tag!r}; expected one of {LAW_TAGS}")
    return tag


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
    if _law_tag(law) == "rigid":
        return 3.0 if side == "lower" else 10.0
    return math.pi if side == "lower" else 200.0 * math.sqrt(d)


def theorem_bounds(d: int, length: float, law, delta: float = 1.0, strict: bool = True) -> BoundsReport:
    """Evaluate the critical-intensity bracket for (d, L, law).

    With ``strict`` (the default) the stated L-validity thresholds are hard
    preconditions; ``strict=False`` evaluates the formulas anyway, which is
    only meant for bracket sanity checks at small L.  ``delta`` is the
    density floor of the ``density`` law; it must satisfy 0 < delta <= 1
    for every law, used or not.  A constant or bracket that leaves the
    positive floating-point range raises DomainError.
    """
    d = check_dim(d)
    tag = _law_tag(law)
    check_length(length)
    check_density_floor(delta)
    if tag == "uniform":
        delta = 1.0
    if strict:
        for side in ("lower", "upper"):
            threshold = bound_validity_threshold(d, tag, side)
            if not length > threshold:
                raise PreconditionViolated(
                    f"{tag} {side} bound requires L > {threshold:.6g}, got L = {length:.6g}"
                )
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
        length=float(length),
        law=tag,
        delta=float(delta),
        lower=lower,
        upper=upper,
    )


def gw_offspring_bound(d: int, length: float, intensity: float, law) -> float:
    """Closed-form upper bound on the expected number of sticks hitting a
    fixed stick (the branching-process offspring mean); valid where the
    lower bound is."""
    d = check_dim(d)
    tag = _law_tag(law)
    threshold = bound_validity_threshold(d, tag, "lower")
    if not length > threshold:
        raise PreconditionViolated(f"{tag} offspring bound requires L > {threshold:.6g}")
    exponent = 1 if tag == "rigid" else 2
    return intensity * length**exponent / lower_bound_constant(d, tag)


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
        check_dim(self.d)
        if not 0.0 < self.length < math.inf:
            raise DomainError(f"L must be positive and finite, got L = {self.length}")

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
    d = check_dim(d)
    threshold = bound_validity_threshold(d, "uniform", "upper")
    if not length > threshold:
        raise PreconditionViolated(f"lattice count requires L > {threshold:.6g}")
    geom = ConstructionGeometry(d, length)
    margin = geom.half_side - geom.face_inset
    if margin < 0.0:
        return 0
    return (2 * math.floor(margin / geom.lattice_spacing + 1e-12) + 1) ** (d - 1)


def lattice_T_count_bound(d: int, length: float) -> float:
    """Closed-form lower bound (L/(96 sqrt d) - 4)^{d-1} for the count."""
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
    on batches of at most ``_MC_CHUNK`` draws, to bound memory."""
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = substream(seed, _STREAM_MEASURE_MC, stream)
    hits = sum(count_hits(rng, min(_MC_CHUNK, trials - done)) for done in range(0, trials, _MC_CHUNK))
    p = hits / trials
    se = scale * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return MCEstimate(value=scale * p, stderr=se, trials=trials, hits=hits)


def mc_stick_hit_volume(
    d: int,
    length: float,
    rho: float,
    law: OrientationLaw,
    trials: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo check of ``stick_hit_volume``.

    Samples orientations from ``law`` and centers uniformly in a box aligned
    with each orientation (a Householder frame), which tightly contains all
    centers whose segment can reach the ball; the estimate is box volume
    times hit fraction.
    """
    d = check_dim(d)
    if rho <= 0.0 or length <= 0.0:
        raise DomainError("need positive rho and length")
    half_t = 0.5 * length + rho

    def count_hits(rng, n):
        p = law.sample_directions(rng, d, n)
        local = rng.uniform(-rho, rho, size=(n, d))
        local[:, 0] = rng.uniform(-half_t, half_t, size=n)
        # reflect e1 onto p: x = w - 2 v <v,w>/<v,v> with v = e1 - p
        v = -p.copy()
        v[:, 0] += 1.0
        vv = np.einsum("ij,ij->i", v, v)
        vw = np.einsum("ij,ij->i", v, local)
        shift = np.where(vv > 1e-24, 2.0 * vw / np.where(vv > 1e-24, vv, 1.0), 0.0)
        x = local - shift[:, None] * v
        return int(segments_hit_ball(x, p, 0.5 * length, np.zeros(d), rho).sum())

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
    if not (0.0 < rho < r):
        raise DomainError("need 0 < rho < r")
    length = 2.0 * (r + rho + 1.0)
    x = np.zeros(d)
    x[0] = r

    def count_hits(rng, n):
        p = Uniform().sample_directions(rng, d, n)
        centers = np.broadcast_to(x, (n, d))
        return int(segments_hit_ball(centers, p, 0.5 * length, np.zeros(d), rho).sum())

    return _mc_fraction(trials, seed, 2, 1.0, count_hits)


def mc_two_ball_measure(
    d: int,
    length: float,
    law: OrientationLaw,
    trials: int,
    seed: int,
    intensity: float = 1.0,
) -> MCEstimate:
    """Monte Carlo estimate of the two-ball lemma's measure: segments
    centered in the middle construction box D^{(-1,0)} whose segment
    connects B(gamma, 2) and B(zeta, 2).

    The lemma's points are the construction's own: gamma the center of
    D^{(-2,0)} and zeta the center of the right face of D^o.  The lemma
    takes zeta on the face inset by 16, which is empty below
    L = 256 sqrt(d) (the half side L/(16 sqrt d) is then under the inset)
    and shrinks to the face center as L comes down to it; below, the face
    center stands in for it.  Needs L > 32.  Centers are sampled uniformly
    in D^{(-1,0)}; the estimate is intensity * Vol(D) * hit fraction, to be
    compared against intensity * delta * c_d * L^{2-d}.
    """
    d = check_dim(d)
    check_intensity(intensity)
    geom = ConstructionGeometry(d, length)
    if not length > 32.0:
        raise PreconditionViolated("two-ball measure requires L > 32")
    if isinstance(law, Rigid):
        raise PreconditionViolated("law must have a positive density floor")
    gamma = geom.box_center((-2, 0))
    zeta = geom.right_face_center((0, 0))
    box = geom.box((-1, 0))
    volume = box.volume
    if not math.isfinite(volume):
        raise DomainError(f"construction box volume overflows at L = {length}")

    def count_hits(rng, n):
        x, p = place_sticks(d, law, box, [rng], [n])
        h = 0.5 * length
        return int((segments_hit_ball(x, p, h, gamma, 2.0) & segments_hit_ball(x, p, h, zeta, 2.0)).sum())

    return _mc_fraction(trials, seed, 3, intensity * volume, count_hits)


def two_ball_lower_bound(d: int, length: float, delta: float, intensity: float = 1.0) -> float:
    """The two-ball lemma lower bound intensity * delta * c_d * L^{2-d}."""
    d = check_dim(d)
    return check_intensity(intensity) * check_density_floor(delta) * c_d(d) * float(length) ** (2 - d)

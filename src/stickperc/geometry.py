"""Exact d-dimensional distance kernel for points, lines, segments and balls.

Everything is expressed in length units where the stick radius is 1, so two
sticks overlap exactly when their core segments come within distance 2.
All functions are pure; arrays are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParallelLines, PreconditionViolated

# Sticks have unit radius by convention; the touching threshold for two
# radius-1 sticks is the constant 2.
INTERSECT_THRESHOLD = 2.0

_UNIT_TOL = 1e-12
_PARALLEL_TOL = 1e-12


def unit(v) -> np.ndarray:
    """Normalize ``v`` to unit length."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if not np.isfinite(n) or n == 0.0:
        raise DomainError("cannot normalize zero or non-finite vector")
    return v / n


def check_unit(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(float(np.linalg.norm(p)) - 1.0) > _UNIT_TOL:
        raise DomainError("direction vector is not unit length")
    return p


@dataclass(frozen=True)
class Segment:
    """Line segment center + t*direction for t in [-length/2, length/2]."""

    center: np.ndarray
    direction: np.ndarray
    length: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "direction", check_unit(self.direction))
        if not (self.length > 0.0) or not np.isfinite(self.length):
            raise DomainError("segment length must be positive and finite")
        if not np.all(np.isfinite(self.center)):
            raise DomainError("segment center must be finite")
        if self.center.shape != self.direction.shape or self.center.ndim != 1:
            raise DomainError("center and direction must be 1-d arrays of equal dimension")
        if self.center.shape[0] < 2:
            raise DomainError("dimension must be at least 2")

    @property
    def half(self) -> float:
        return 0.5 * self.length


def line_point_distance_sq(x, p, y) -> float:
    """Squared distance from the point ``y`` to the infinite line through
    ``x`` with unit direction ``p``; equals ||x-y||^2 - <x-y, p>^2."""
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    val = float(u @ u) - float(u @ np.asarray(p, dtype=float)) ** 2
    return max(val, 0.0)


def line_line_distance_profile(x, p, y, q, t: float) -> float:
    """Squared distance from the point at parameter ``t`` on line (x, p) to
    the whole line (y, q).

    h(t) = ||x-y||^2 + t^2 (1 - <p,q>^2) - <x-y,q>^2
           + 2 t (<x-y,p> - <p,q><x-y,q>)
    """
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = float(p @ q)
    uq = float(u @ q)
    up = float(u @ p)
    val = float(u @ u) + t * t * (1.0 - c * c) - uq * uq + 2.0 * t * (up - c * uq)
    return max(val, 0.0)


def line_line_t_min(x, p, y, q) -> float:
    """Parameter on line (x, p) closest to line (y, q).

    Raises ParallelLines when 1 - <p,q>^2 < 1e-12, where the closed form
    divides by zero.
    """
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = float(p @ q)
    denom = 1.0 - c * c
    if denom < _PARALLEL_TOL:
        raise ParallelLines("line directions are parallel within tolerance")
    return -(float(u @ p) - c * float(u @ q)) / denom


def _f_value(uu, up, uq, c, t, tau):
    # f(t, tau) = ||u + t p - tau q||^2 expanded with unit p, q.
    return uu + t * t + tau * tau - 2.0 * t * tau * c + 2.0 * t * up - 2.0 * tau * uq


def _clamped_minimizer(numer: float, denom: float, half: float) -> float:
    # numer / denom clamped to [-half, half]; where denom rounds to 0 the
    # minimizer lies beyond the end numer points to (0 if numer is 0 too)
    t = numer / denom if denom > 0.0 else math.copysign(half, numer) if numer else 0.0
    return min(max(t, -half), half)


def segment_segment_distance(a: Segment, b: Segment) -> float:
    """Minimum distance between two segments.

    Takes the best of the unconstrained two-line minimizer when it lies in
    the parameter box, its clamped projections into the box (the start of
    ``segment_distance_arrays``), and the analytic minimum on each edge of
    the box.  The winning parameter pair is evaluated directly on the
    difference vector, which stays accurate when the segments nearly touch.
    """
    u = a.center - b.center
    p, q = a.direction, b.direction
    up = float(u @ p)
    uq = float(u @ q)
    c = float(p @ q)
    ha, hb = a.half, b.half

    candidates: list[tuple[float, float]] = []
    denom = 1.0 - c * c
    if denom >= _PARALLEL_TOL:
        t_star = (c * uq - up) / denom
        tau_star = (uq - c * up) / denom
        if -ha <= t_star <= ha and -hb <= tau_star <= hb:
            candidates.append((t_star, tau_star))
    # the clamped line minimizer projected into the box, t first and tau
    # first, as in segment_distance_arrays: below the parallel tolerance the
    # edges alone miss the contact of nearly parallel crossing segments
    t = _clamped_minimizer(c * uq - up, denom, ha)
    tau = min(max(c * t + uq, -hb), hb)
    candidates.append((min(max(c * tau - up, -ha), ha), tau))
    tau = _clamped_minimizer(uq - c * up, denom, hb)
    t = min(max(c * tau - up, -ha), ha)
    candidates.append((t, min(max(c * t + uq, -hb), hb)))
    # four edges of the (t, tau) rectangle, each a clamped 1-d quadratic
    for t_fixed in (-ha, ha):
        candidates.append((t_fixed, min(max(c * t_fixed + uq, -hb), hb)))
    for tau_fixed in (-hb, hb):
        candidates.append((min(max(c * tau_fixed - up, -ha), ha), tau_fixed))
    best = math.inf
    for t, tau in candidates:
        # grouping keeps the evaluation exactly antisymmetric under swapping
        # the two segments, so the distance is symmetric to the last bit
        diff = u + (t * p - tau * q)
        best = min(best, float(diff @ diff))
    return math.sqrt(max(best, 0.0))


def segment_distance_arrays(ca, da, la, cb, db, lb) -> np.ndarray:
    """Vectorized segment-segment distance (closest-point projection form).

    All arguments broadcast; ``ca, da`` are (n, d) centers/unit directions
    and ``la`` (n,) lengths.  Matches ``segment_segment_distance`` to
    floating-point accuracy; used in the clustering hot path.
    """
    ca = np.asarray(ca, dtype=float)
    cb = np.asarray(cb, dtype=float)
    da = np.asarray(da, dtype=float)
    db = np.asarray(db, dtype=float)
    ha = 0.5 * np.asarray(la, dtype=float)
    hb = 0.5 * np.asarray(lb, dtype=float)
    u = ca - cb
    up = np.einsum("...i,...i->...", u, da)
    uq = np.einsum("...i,...i->...", u, db)
    c = np.einsum("...i,...i->...", da, db)
    denom = 1.0 - c * c
    # Unlike the scalar edge scan, no parallel tolerance: a nearly parallel
    # pair must start from its clamped line minimizer, or the projection
    # stops at the wrong end of the overlap (off by up to L * angle).  Where
    # 1 - c^2 rounds to 0 the minimizer lies beyond the end the numerator
    # points to; exactly parallel lines (numerator 0) start from t = 0,
    # where every start is optimal.
    numer = c * uq - up
    t = np.asarray(np.sign(numer) * ha)
    np.divide(numer, denom, out=t, where=denom > 0.0)
    del numer  # one array fewer alive at the (n, d) temporaries below
    t = np.clip(t, -ha, ha)
    tau = np.clip(c * t + uq, -hb, hb)
    t = np.clip(c * tau - up, -ha, ha)
    diff = u + t[..., None] * da - tau[..., None] * db
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


def segments_hit_ball(centers, dirs, half_lengths, c, rho: float) -> np.ndarray:
    """Which of the (n, d) segments (``centers``, ``dirs``, ``half_lengths``)
    come within distance ``rho`` of the point ``c``."""
    if not rho > 0.0:
        raise DomainError("ball radius must be positive")
    centers = np.asarray(centers, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    w = np.asarray(c, dtype=float) - centers
    t = np.einsum("...i,...i->...", w, dirs)
    t = np.clip(t, -np.asarray(half_lengths, dtype=float), np.asarray(half_lengths, dtype=float))
    diff = w - t[..., None] * dirs
    return np.einsum("...i,...i->...", diff, diff) <= rho * rho


def min_distance_outside_window(x, p, y, q, t1: float, tau1: float, w: float) -> float:
    """Infimum of the two-line point distance outside a parameter window.

    Minimizes ||l_{x,p}(t) - l_{y,q}(tau)|| over the region
    max(|t - t1|, |tau - tau1|) >= w.  Preconditions (separation lemma):
    |<p,q>| <= 1/sqrt(2) and the window-defining pair itself is within
    distance 2.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = float(p @ q)
    if abs(c) > 1.0 / np.sqrt(2.0) + 1e-12:
        raise PreconditionViolated("|<p,q>| must be at most 1/sqrt(2)")
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    uu = float(u @ u)
    up = float(u @ p)
    uq = float(u @ q)
    pair_sq = _f_value(uu, up, uq, c, t1, tau1)
    if pair_sq > 4.0 + 1e-9:
        raise PreconditionViolated("window-defining pair is farther apart than 2")
    if w <= 0.0:
        return float(np.sqrt(max(pair_sq, 0.0)))

    denom = 1.0 - c * c
    t_star = (c * uq - up) / denom
    tau_star = (uq - c * up) / denom
    if max(abs(t_star - t1), abs(tau_star - tau1)) >= w:
        return float(np.sqrt(max(_f_value(uu, up, uq, c, t_star, tau_star), 0.0)))
    # The feasible region is a union of four half-planes; in each one the
    # minimum sits on the bounding line (t or tau pinned, the other free).
    best = np.inf
    for t_fixed in (t1 - w, t1 + w):
        tau = c * t_fixed + uq
        best = min(best, _f_value(uu, up, uq, c, t_fixed, tau))
    for tau_fixed in (tau1 - w, tau1 + w):
        t = c * tau_fixed - up
        best = min(best, _f_value(uu, up, uq, c, t, tau_fixed))
    return float(np.sqrt(max(best, 0.0)))

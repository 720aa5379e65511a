"""Exact d-dimensional distance kernel for points, lines, segments and balls.

Everything is expressed in length units where the stick radius is 1, so two
sticks overlap exactly when their core segments come within distance 2.
All functions are pure; arrays are never mutated.

The segment distance has one body, ``_segment_distance``, on per-axis
arrays: clustering hands it whole (d, m) columns, and the row form
``segment_distance_arrays`` moves the axis to the front.  Each dot product
is summed over the even axes, then the odd axes, then the two sums: the
order numpy's ``einsum`` takes over a contiguous axis of length at most 6,
so every distance for d <= 6 is the row form's ``einsum`` value to the last
bit.  For d >= 7 the last bit may differ.
"""

from __future__ import annotations

import numpy as np

from .errors import ParallelLines, PreconditionViolated
from .sampling import check_real

# Sticks have unit radius by convention; the touching threshold for two
# radius-1 sticks is the constant 2.
INTERSECT_THRESHOLD = 2.0

_PARALLEL_TOL = 1e-12

# rows per block of the Monte Carlo kernels and the narrow phase's pairs: three
# (d, m) gathers and a dozen m-long columns (1.2 MB at d = 3) stay in cache, and
# the narrow phase ran fastest at this size of 2,048-32,768
_BLOCK = 8_192


def _dot(a, b):
    # row-wise <a, b> over the last axis, broadcast; a stack of 1 x d by
    # d x 1 products rounds each row as the 1-d ``a @ b`` does
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def line_line_distance_profile(x, p, y, q, t):
    """Squared distance from the point at parameter ``t`` on line (x, p) to
    the whole line (y, q); every argument broadcasts over rows.

    h(t) = ||x-y||^2 + t^2 (1 - <p,q>^2) - <x-y,q>^2
           + 2 t (<x-y,p> - <p,q><x-y,q>)
    """
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = _dot(p, q)
    uq = _dot(u, q)
    return np.maximum(_dot(u, u) + t * t * (1.0 - c * c) - uq * uq + 2.0 * t * (_dot(u, p) - c * uq), 0.0)


def line_line_t_min(x, p, y, q):
    """Parameter on line (x, p) closest to line (y, q), broadcast over rows
    as ``line_line_distance_profile``.

    Raises ParallelLines when 1 - <p,q>^2 < 1e-12 on any row, where the
    closed form divides by zero.
    """
    u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = _dot(p, q)
    denom = 1.0 - c * c
    if np.any(denom < _PARALLEL_TOL):
        raise ParallelLines("line directions are parallel within tolerance")
    return -(_dot(u, p) - c * _dot(u, q)) / denom


def segment_distance_arrays(ca, da, la, cb, db, lb) -> np.ndarray:
    """Vectorized segment-segment distance (closest-point projection form).

    All arguments broadcast; ``ca, da`` are (n, d) centers/unit directions
    and ``la`` (n,) lengths.  The package's one segment distance: clustering,
    branching and the self-checks all run it.  This is the row form of
    ``_segment_distance``, which clustering calls on per-axis columns.
    """
    rows = np.subtract(ca, cb, dtype=float), np.asarray(da, dtype=float), np.asarray(db, dtype=float)
    u, da, db = (np.moveaxis(v, -1, 0) for v in rows)
    return _segment_distance(u, da, 0.5 * np.asarray(la, dtype=float), db, 0.5 * np.asarray(lb, dtype=float))


def _axis_dot(a, b):
    # sum over k of a[k] * b[k] in einsum's order (see the module docstring)
    even = a[0] * b[0]
    for k in range(2, len(a), 2):
        even += a[k] * b[k]
    odd = a[1] * b[1]
    for k in range(3, len(a), 2):
        odd += a[k] * b[k]
    even += odd
    return even


def _segment_distance(u, da, ha, db, hb) -> np.ndarray:
    """``segment_distance_arrays`` on per-axis arrays: ``u[k]``, ``da[k]``
    and ``db[k]`` are axis k of the center differences ``ca - cb`` and of
    the two directions, ``ha`` and ``hb`` the half lengths; all broadcast.
    Each step is one operation on whole columns, with no axis only d long
    in the inner loop."""
    up = _axis_dot(u, da)
    uq = _axis_dot(u, db)
    c = _axis_dot(da, db)
    denom = 1.0 - c * c
    # No parallel tolerance: a nearly parallel pair must start from its
    # clamped line minimizer, or the projection stops at the wrong end of
    # the overlap (off by up to L * angle).  Where
    # 1 - c^2 rounds to 0 the minimizer lies beyond the end the numerator
    # points to; exactly parallel lines (numerator 0) start from t = 0,
    # where every start is optimal.
    numer = c * uq - up
    t = np.asarray(np.sign(numer) * ha)
    np.divide(numer, denom, out=t, where=denom > 0.0)
    del numer  # one column fewer alive at the d columns of diff below
    t = np.clip(t, -ha, ha)
    tau = np.clip(c * t + uq, -hb, hb)
    t = np.clip(c * tau - up, -ha, ha)
    diff = [u[k] + t * da[k] - tau * db[k] for k in range(len(u))]
    return np.sqrt(_axis_dot(diff, diff))


def check_radius(rho: float) -> float:
    """``rho`` as a float; DomainError unless the radius is positive and finite."""
    return check_real(rho, "radius", "(0, inf)")


def _blocks(n: int):
    """Slices of at most ``_BLOCK`` rows that cover rows 0..n-1 in order."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _ball_distance_sq(w, p, h) -> np.ndarray:
    """Squared distance from a point to the segments on per-axis columns:
    ``w[k]`` is axis k of the point minus the centers, ``p[k]`` of the
    directions, ``h`` the half lengths; all broadcast.  A distance beyond
    the float range reads inf, farther than any ball."""
    with np.errstate(over="ignore"):
        t = np.clip(_axis_dot(w, p), -h, h)
        diff = [w[k] - t * p[k] for k in range(len(w))]
        return _axis_dot(diff, diff)


def segments_hit_ball(centers, dirs, half_lengths, c, rho: float) -> np.ndarray:
    """Which of the (n, d) segments (``centers``, ``dirs``, ``half_lengths``)
    come within distance ``rho`` of the point ``c``.

    The rows are tested in blocks of ``_BLOCK`` on per-axis columns, so no
    temporary outgrows the cache.  Each squared distance sums its axes in
    ``_axis_dot``'s order, the order ``einsum`` takes over C-contiguous
    (n, d) rows, so there every value for d <= 6 is ``einsum``'s to the
    last bit.  Over (n, d) views of per-axis (d, n) rows ``einsum`` sums
    the axes in turn instead, so for d >= 3 a value may differ from its
    sum in the last bit.
    """
    rho = check_radius(rho)
    centers, dirs = np.broadcast_arrays(np.asarray(centers, dtype=float), np.asarray(dirs, dtype=float))
    h = np.asarray(half_lengths, dtype=float)
    c = np.asarray(c, dtype=float)
    hit = np.empty(len(centers), dtype=bool)
    for rows in _blocks(len(centers)):
        w = [c[k] - centers[rows, k] for k in range(len(c))]
        hit[rows] = _ball_distance_sq(w, dirs[rows].T, h[rows] if h.ndim else h) <= rho * rho
    return hit


def min_distance_outside_window(x, p, y, q, t1, tau1, w: float) -> np.ndarray:
    """Infimum of the two-line point distance outside a parameter window.

    Minimizes ||l_{x,p}(t) - l_{y,q}(tau)|| over the region
    max(|t - t1|, |tau - tau1|) >= w.  Every argument but ``w`` broadcasts
    over rows, as in ``segment_distance_arrays``; one instance gives a
    float.  Preconditions (separation lemma), checked on every row:
    |<p,q>| <= 1/sqrt(2) and the window-defining pair itself is within
    distance 2.
    """
    x, p, y, q, t1, tau1 = (np.asarray(v, dtype=float) for v in (x, p, y, q, t1, tau1))
    if np.any(np.abs(_dot(p, q)) > 1.0 / np.sqrt(2.0) + 1e-12):
        raise PreconditionViolated("|<p,q>| must be at most 1/sqrt(2)")
    gap = x + t1[..., None] * p - y - tau1[..., None] * q
    pair_sq = _dot(gap, gap)
    if np.any(pair_sq > 4.0 + 1e-9):
        raise PreconditionViolated("window-defining pair is farther apart than 2")
    if w <= 0.0:
        return np.sqrt(pair_sq)

    # The feasible region is a union of four half-planes; in each one the
    # minimum sits on the bounding line (t or tau pinned, the other free),
    # unless the joint minimizer (t_star, tau_star) lies in the region.
    t_star = line_line_t_min(x, p, y, q)
    tau_star = line_line_t_min(y, q, x, p)
    edges = [line_line_distance_profile(x, p, y, q, t) for t in (t1 - w, t1 + w)]
    edges += [line_line_distance_profile(y, q, x, p, tau) for tau in (tau1 - w, tau1 + w)]
    free = np.maximum(np.abs(t_star - t1), np.abs(tau_star - tau1)) >= w
    best = np.where(free, line_line_distance_profile(x, p, y, q, t_star), np.minimum.reduce(edges))
    return np.sqrt(best)

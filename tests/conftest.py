"""Shared brute-force oracles for the test suite.

The oracles deliberately avoid the closed forms they check: grid scans for
distance minimization and plain rejection counting for hit fractions.
"""

import numpy as np

from stickperc.verify import grid_segment_distance, random_unit  # noqa: F401


def grid_line_point_min(x, p, y, t_lo=-20.0, t_hi=20.0, step=1e-4):
    """Dense t-grid minimum of ||x + t p - y||^2."""
    t = np.arange(t_lo, t_hi + step, step)
    pts = np.asarray(x)[None, :] + t[:, None] * np.asarray(p)[None, :]
    diff = pts - np.asarray(y)[None, :]
    return float(np.min(np.einsum("ij,ij->i", diff, diff)))


def grid_profile_min(x, p, y, q, t, tau_lo=-100.0, tau_hi=100.0, step=1e-3):
    """Dense tau-grid minimum of ||x + t p - (y + tau q)||^2."""
    tau = np.arange(tau_lo, tau_hi + step, step)
    base = np.asarray(x) + t * np.asarray(p) - np.asarray(y)
    pts = base[None, :] - tau[:, None] * np.asarray(q)[None, :]
    return float(np.min(np.einsum("ij,ij->i", pts, pts)))


def grid_distance_outside_window(x, p, y, q, t1, tau1, w, reach=60.0, steps=4001):
    """Grid minimum of the two-line point distance over the region
    max(|t - t1|, |tau - tau1|) >= w."""
    t = np.linspace(t1 - reach, t1 + reach, steps)
    tau = np.linspace(tau1 - reach, tau1 + reach, steps)
    u = np.asarray(x) - np.asarray(y)
    c = float(np.asarray(p) @ np.asarray(q))
    up = float(u @ np.asarray(p))
    uq = float(u @ np.asarray(q))
    uu = float(u @ u)
    f = (
        (t * t + 2.0 * t * up)[:, None]
        + (tau * tau - 2.0 * tau * uq)[None, :]
        - 2.0 * c * t[:, None] * tau[None, :]
        + uu
    )
    # tolerant boundary inclusion: the region is closed and the grid point
    # meant to sit exactly on |t - t1| = w can land one ulp inside
    outside = np.maximum(np.abs(t - t1)[:, None], np.abs(tau - tau1)[None, :]) >= w - 1e-6
    return float(np.sqrt(max(f[outside].min(), 0.0)))


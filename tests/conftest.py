"""Shared brute-force oracles, a box sampler, the stacking of configurations
into a batch's rows, an estimate's first probe, a recorder of the batch
clustering, reference bodies of rewritten kernels and the environment of a
subprocess that runs this checkout, for the test suite.

The oracles deliberately avoid the closed forms they check: grid scans for
distance minimization, plain rejection counting for hit fractions, and a
scalar segment distance that scans the edges of the parameter box, written
apart from the package's vectorised kernel.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from stickperc import percolation
from stickperc.errors import DomainError
from stickperc.geometry import _PARALLEL_TOL
from stickperc.rng import substream
from stickperc.sampling import _STREAM_CONFIG, Configuration, Rigid, poisson_sticks
from stickperc.verify import grid_segment_distance  # noqa: F401

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env(**extra):
    """The environment of a subprocess that imports this checkout's
    ``src`` before any installed copy of the package, plus ``extra``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def sample_configuration(d, length, intensity, law, box, seed):
    """A Poisson stick configuration centered in ``box``, which is also its
    observation window, drawn from the stream ``sample_window_configuration``
    draws from."""
    centers, dirs, _ = poisson_sticks(d, intensity, law, box, [substream(seed, _STREAM_CONFIG)])
    return Configuration(float(length), box, centers, dirs)


def reference_sticks(d, intensity, law, box, rng):
    """One stream's Poisson sticks as ``poisson_sticks`` drew them before it
    sampled batches: the count, ``uniform(low, high)`` centres, then the
    law's directions, a uniform direction normalised on its own and any row
    too short to normalise drawn again until none is.  The bit-identity
    reference for each stream's part of a batch."""
    n = int(rng.poisson(intensity * box.volume))
    centers = rng.uniform(box.low, box.high, size=(n, d))
    if isinstance(law, Rigid):
        return centers, np.broadcast_to(law.axis, (n, d)).copy()
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        z[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(z, axis=1)
    return centers, z / norms[:, None]


def stacked_rows(configs):
    """The arguments ``percolation._batch_crossings`` takes before the axis
    for a batch of ``configs`` with one length and window: their sticks as
    (d, n) per-axis rows, replicate by replicate, their counts, the length
    and the window."""
    first = configs[0]
    shape = (first.d, sum(c.count for c in configs))
    # C-contiguous rows, as the batch sampler lays them out
    centers = np.concatenate([c.centers.T for c in configs], axis=1, out=np.empty(shape))
    dirs = np.concatenate([c.dirs.T for c in configs], axis=1, out=np.empty(shape))
    return centers, dirs, [c.count for c in configs], first.length, first.observation_window


def batch_crossings(configs, axis=0, cell=None):
    """``percolation._batch_crossings`` on the batch of ``configs``."""
    return percolation._batch_crossings(*stacked_rows(configs), axis, cell)


def probe(d, length, intensity, law, side, replicates, seed, axis=0, workers=1):
    """``percolation._probe`` as ``estimate_threshold`` runs its first
    probe, at ``intensity`` and on the pool ``workers`` asks for."""
    with percolation._replicate_pool(workers) as executor:
        return percolation._probe(executor, d, length, intensity, law, side, replicates, seed, axis, 0)


def batch_clustering(configs, axis=0, cell=None):
    """The edges and labels of one ``percolation._batch_crossings`` call on
    ``configs``: the ``(first, second)`` edge index arrays it hands
    ``_labels`` and the labels that returns, in the batch's stick order."""
    seen = []
    labels = percolation._labels

    def recording_labels(n, first, second):
        seen.append((first, second, labels(n, first, second)))
        return seen[-1][2]

    # a context, not the fixture, so that hypothesis tests can record too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(percolation, "_labels", recording_labels)
        batch_crossings(configs, axis, cell)
    (clustering,) = seen
    return clustering


def reference_index(centers, dirs, length, cell, replicate):
    """``percolation._index`` as it stood before the offset expansion:
    every registration decoded from its rank within its stick and the
    keys ordered by ``argsort``.  The bit-identity reference for the
    index's three arrays."""
    n, d = centers.shape
    cell = np.asarray(percolation.tuned_cell_size(length, None) if cell is None else cell, dtype=float)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return percolation.SpatialIndex(d, _stick_ids=empty, _starts=empty, _low_edges=empty)
    half_ext = 0.5 * length * np.abs(dirs) + 1.0
    lo = np.floor((centers - half_ext) / cell).astype(np.int64)
    hi = np.floor((centers + half_ext) / cell).astype(np.int64)
    grid_min = lo.min(axis=0)
    grid_span = hi.max(axis=0) - grid_min + 1
    grid_cells = math.prod(grid_span.tolist())
    if grid_cells * (int(replicate[-1]) + 1) * n >= 2**63:
        raise DomainError("cell too small: the grid's cell codes overflow")
    spans = hi - lo + 1
    counts = spans.prod(axis=1)
    total = int(counts.sum())
    # each registration's rank within its stick, decoded one axis at a time
    # (last axis first) into the grid's C-order cell code, below the digit
    # of the stick's replicate
    rest = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    codes = np.repeat(replicate * grid_cells, counts)
    edge_type = np.min_scalar_type((1 << d) - 1)
    low_edges = np.zeros(total, dtype=edge_type)
    stride = 1
    for k in range(d - 1, -1, -1):
        rest, offset = np.divmod(rest, np.repeat(spans[:, k], counts))
        codes += (np.repeat(lo[:, k] - grid_min[k], counts) + offset) * stride
        low_edges |= (offset == 0).astype(edge_type) << k
        stride *= int(grid_span[k])
    stick_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.argsort(codes * n + stick_ids)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(codes[order])) + 1))
    return percolation.SpatialIndex(d, _stick_ids=stick_ids[order], _starts=starts, _low_edges=low_edges[order])


def random_unit(rng, d):
    """One uniform random unit vector in R^d."""
    v = rng.standard_normal(d)
    # for a 1-d vector, the same square root of the same dot product as
    # np.linalg.norm, without its per-call overhead
    return v / math.sqrt(v @ v)


def _clamped_minimizer(numer: float, denom: float, half: float) -> float:
    # numer / denom clamped to [-half, half]; where denom rounds to 0 the
    # minimizer lies beyond the end numer points to (0 if numer is 0 too)
    t = numer / denom if denom > 0.0 else math.copysign(half, numer) if numer else 0.0
    return min(max(t, -half), half)


def segment_segment_distance(ca, da, la, cb, db, lb) -> float:
    """Minimum distance between two segments, given as the rows
    ``segment_distance_arrays`` takes: centers, unit directions, lengths.

    Takes the best of the unconstrained two-line minimizer when it lies in
    the parameter box, its clamped projections into the box (the start of
    ``segment_distance_arrays``), and the analytic minimum on each edge of
    the box.  The winning parameter pair is evaluated directly on the
    difference vector, which stays accurate when the segments nearly touch.
    """
    u = ca - cb
    up = float(u @ da)
    uq = float(u @ db)
    c = float(da @ db)
    ha, hb = 0.5 * la, 0.5 * lb

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
        diff = u + (t * da - tau * db)
        best = min(best, float(diff @ diff))
    return math.sqrt(max(best, 0.0))


def einsum_segment_distance(ca, da, la, cb, db, lb):
    """The row kernel as it stood before the per-axis body, each dot
    product an ``einsum`` over the last axis: the bit-identity reference
    for ``segment_distance_arrays``."""
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
    numer = c * uq - up
    t = np.asarray(np.sign(numer) * ha)
    np.divide(numer, denom, out=t, where=denom > 0.0)
    t = np.clip(t, -ha, ha)
    tau = np.clip(c * t + uq, -hb, hb)
    t = np.clip(c * tau - up, -ha, ha)
    diff = u + t[..., None] * da - tau[..., None] * db
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


def full_grid_segment_distance(ca, da, la, cb, db, lb, steps: int) -> float:
    """``grid_segment_distance`` evaluated on every point of the steps x
    steps grid, with the same arithmetic per point."""
    t = np.linspace(-0.5 * la, 0.5 * la, steps)
    tau = np.linspace(-0.5 * lb, 0.5 * lb, steps)
    u = ca - cb
    c = float(da @ db)
    up = float(u @ da)
    uq = float(u @ db)
    uu = float(u @ u)
    f = (t * t + 2.0 * t * up)[:, None] + (tau * tau - 2.0 * tau * uq)[None, :] - 2.0 * c * t[:, None] * tau + uu
    return float(np.sqrt(max(float(f.min()), 0.0)))


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


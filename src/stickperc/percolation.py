"""Cluster analysis and critical-intensity estimation.

Pipeline per configuration: a spatial hash over stick bounding boxes
(broad phase), exact segment-segment distances on the candidate pairs
(narrow phase), array connected components (min-label hooking with pointer
jumping) giving each stick's cluster label (``cluster``), and the
window-crossing test on those labels (``crossing_event``).  On top of that
sit the crossing-probability estimator, a stochastic bisection for the
threshold intensity, and the log-log scaling fit; the last two share one
weighted least-squares line.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, DegenerateDesign, DomainError, PreconditionViolated
from .geometry import INTERSECT_THRESHOLD, segment_distance_arrays
from .measures import theorem_bounds
from .rng import derive_seed
from .sampling import Configuration, OrientationLaw, sample_window_configuration
from .stats import _Z95, wilson_interval

_STREAM_REPLICATE = 0x4EB1
_PAIR_CHUNK = 2_000_000


class UnionFind:
    """Disjoint-set forest over stick indices (path halving + union by rank)."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._rank = [0] * n
        self.count = n

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self.count -= 1
        return True

    def labels(self) -> np.ndarray:
        return np.array([self.find(i) for i in range(len(self._parent))])


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the
    ``(k, 2)`` array ``edges``: the smallest node index in its component.

    Each round hooks every root onto the smallest root it shares an edge
    with, then jumps pointers until every node points at its root
    (Shiloach & Vishkin, J. Algorithms 3, 1982).  Labels only point to
    smaller indices, so the roots are the component minima.
    """
    labels = np.arange(n)
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


@dataclass
class SpatialIndex:
    """Uniform-grid broad phase: each stick is registered in every cell its
    radius-1-inflated bounding box overlaps, so any two intersecting sticks
    share at least one cell regardless of cell size."""

    n: int
    _codes: np.ndarray = field(repr=False)
    _stick_ids: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)
    _grid_min: np.ndarray = field(repr=False)
    _grid_span: np.ndarray = field(repr=False)
    # per registration, bit k set when the cell is the stick's lowest on axis k
    _low_edges: np.ndarray = field(repr=False)

    def candidate_pairs(self) -> np.ndarray:
        """Index pairs (i < j) sharing at least one cell, each once; a
        superset of all intersecting pairs.

        The shared cells of two sticks form a box whose low corner lies on
        each axis at the lower edge of one of the two sticks; a pair is
        reported only in that cell (Ericson, Real-Time Collision Detection,
        2004, ch. 7).
        """
        m = len(self._stick_ids)
        sizes = np.diff(np.append(self._starts, m))
        # registration p pairs with the ones after it in its cell
        after = np.repeat(self._starts + sizes, sizes) - np.arange(m) - 1
        first = np.repeat(np.arange(m), after)
        second = np.arange(len(first)) + np.repeat(np.arange(1, m + 1) - np.cumsum(after) + after, after)
        all_axes = (1 << len(self._grid_span)) - 1
        keep = (self._low_edges[first] | self._low_edges[second]) == all_axes
        return np.column_stack((self._stick_ids[first[keep]], self._stick_ids[second[keep]]))


def tuned_cell_size(length: float, law) -> float:
    # any cell size is complete (sticks register in every overlapped cell);
    # smaller cells trade registration work for fewer candidate pairs, and
    # aligned sticks profit from much finer cells than isotropic ones
    if getattr(law, "tag", None) == "rigid":
        return length / 8.0 + 2.0
    return length / 2.0 + 2.0


def build_index(config: Configuration, cell: float | None = None) -> SpatialIndex:
    """Hash every stick of ``config`` into the cells overlapped by its
    radius-1-inflated axis-aligned bounding box; without ``cell``, the
    isotropic ``tuned_cell_size``."""
    if cell is None:
        cell = tuned_cell_size(config.length, None)
    if not cell > 0.0:
        raise DomainError("cell size must be positive")
    n, d = config.centers.shape
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SpatialIndex(
            n=0,
            _codes=empty,
            _stick_ids=empty,
            _starts=empty,
            _grid_min=np.zeros(d, dtype=np.int64),
            _grid_span=np.ones(d, dtype=np.int64),
            _low_edges=empty,
        )
    half_ext = config.half * np.abs(config.dirs) + 1.0
    lo = np.floor((config.centers - half_ext) / cell).astype(np.int64)
    hi = np.floor((config.centers + half_ext) / cell).astype(np.int64)
    spans = hi - lo + 1
    counts = spans.prod(axis=1)
    total = int(counts.sum())
    stick_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    strides = np.ones_like(spans)
    for k in range(d - 2, -1, -1):
        strides[:, k] = strides[:, k + 1] * spans[:, k + 1]
    offset = (local[:, None] // strides[stick_ids]) % spans[stick_ids]
    coords = lo[stick_ids] + offset
    low_edges = (offset == 0) @ (1 << np.arange(d))
    grid_min = lo.min(axis=0)
    grid_span = hi.max(axis=0) - grid_min + 1
    codes = np.ravel_multi_index((coords - grid_min).T, grid_span)
    order = np.lexsort((stick_ids, codes))
    codes = codes[order]
    stick_ids = stick_ids[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1))
    return SpatialIndex(
        n=n,
        _codes=codes,
        _stick_ids=stick_ids,
        _starts=starts,
        _grid_min=grid_min,
        _grid_span=grid_span,
        _low_edges=low_edges[order],
    )


def intersection_edges(config: Configuration, cell: float | None = None) -> np.ndarray:
    """Exact intersecting pairs (i < j) of ``config``."""
    pairs = build_index(config, cell).candidate_pairs()
    keep = []
    for lo in range(0, len(pairs), _PAIR_CHUNK):
        block = pairs[lo : lo + _PAIR_CHUNK]
        i, j = block[:, 0], block[:, 1]
        dist = segment_distance_arrays(
            config.centers[i], config.dirs[i], config.length,
            config.centers[j], config.dirs[j], config.length,
        )
        keep.append(block[dist <= INTERSECT_THRESHOLD])
    return np.concatenate(keep) if keep else pairs[:0]


def cluster(config: Configuration, cell: float | None = None) -> np.ndarray:
    """Cluster label of every stick: the smallest stick index in its cluster."""
    return component_labels(config.count, intersection_edges(config, cell))


def crossing_event(config: Configuration, axis: int = 0, cell: float | None = None) -> bool:
    """Whether one cluster touches both window faces orthogonal to ``axis``."""
    if not 0 <= axis < config.d:
        raise DomainError("axis out of range")
    labels = cluster(config, cell)
    window = config.observation_window
    reach = config.half * np.abs(config.dirs[:, axis]) + 1.0
    lo_ext = config.centers[:, axis] - reach
    hi_ext = config.centers[:, axis] + reach
    touch_low = (lo_ext <= window.low[axis]) & (hi_ext >= window.low[axis])
    touch_high = (lo_ext <= window.high[axis]) & (hi_ext >= window.high[axis])
    return bool(np.isin(labels[touch_low], labels[touch_high]).any())


def _replicate_crossing(args) -> bool:
    d, length, intensity, law, side, replicate_seed, axis = args
    config = sample_window_configuration(d, length, intensity, law, side, replicate_seed)
    return crossing_event(config, axis=axis, cell=tuned_cell_size(length, law))


@dataclass(frozen=True)
class CrossingStats:
    intensity: float
    frequency: float
    ci_low: float
    ci_high: float
    successes: int
    replicates: int
    outcomes: tuple[int, ...]


def _replicate_pool(workers: int):
    """A process pool of ``workers`` processes, at most one per CPU, when
    ``workers > 1``, else a context yielding None.  The pool starts all its
    processes at the first task, and results do not depend on its size."""
    if workers < 1:
        raise DomainError("workers must be at least 1")
    if workers == 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))


def replicate_seeds(seed: int, probe: int, replicates: int) -> list[int]:
    return [derive_seed(seed, _STREAM_REPLICATE, probe, r) for r in range(replicates)]


def crossing_probability(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    side: float,
    replicates: int,
    seed: int,
    axis: int = 0,
    workers: int = 1,
    probe_id: int = 0,
    pool: Executor | None = None,
) -> CrossingStats:
    """Fraction of independent window configurations with a crossing, with a
    Wilson 95% interval.  Replicate substreams depend only on (seed,
    probe_id, replicate), so the result is worker-count independent.
    ``pool``, an executor with ``workers`` processes, is used in place of
    a new one when given."""
    if replicates < 1:
        raise DomainError("need at least one replicate")
    seeds = replicate_seeds(seed, probe_id, replicates)
    payloads = [(d, length, intensity, law, side, s, axis) for s in seeds]
    with nullcontext(pool) if pool is not None else _replicate_pool(workers) as executor:
        if executor is None:
            outcomes = [_replicate_crossing(p) for p in payloads]
        else:
            chunk = max(1, len(payloads) // (4 * workers))
            outcomes = [bool(v) for v in executor.map(_replicate_crossing, payloads, chunksize=chunk)]
    successes = int(sum(outcomes))
    ci_low, ci_high = wilson_interval(successes, replicates)
    return CrossingStats(
        intensity=float(intensity),
        frequency=successes / replicates,
        ci_low=ci_low,
        ci_high=ci_high,
        successes=successes,
        replicates=replicates,
        outcomes=tuple(int(v) for v in outcomes),
    )


@dataclass(frozen=True)
class ThresholdEstimate:
    d: int
    length: float
    law: str
    side: float
    lambda_hat: float
    ci_low: float
    ci_high: float
    replicates_per_probe: int
    probes: tuple[CrossingStats, ...]
    bracket: tuple[float, float]
    seed: int


def _weighted_line(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares line of ``y`` on ``x``: (intercept, slope,
    weighted mean of x, total weight, weighted sum of squares of x about its
    mean), or None when x has no spread."""
    sw = float(w.sum())
    xbar = float((w * x).sum() / sw)
    ybar = float((w * y).sum() / sw)
    sxx = float((w * (x - xbar) ** 2).sum())
    if sxx <= 0.0:
        return None
    slope = float((w * (x - xbar) * (y - ybar)).sum()) / sxx
    return ybar - slope * xbar, slope, xbar, sw, sxx


def _logistic_interpolation(
    probes: list[CrossingStats], lo: float, hi: float
) -> tuple[float, float, float]:
    # Weighted least squares of adjusted logits on log-intensity; lambda_hat
    # is the fitted frequency-1/2 point with a delta-method interval.  Only
    # probes inside [lo, hi] enter: the walk-out probes far below threshold
    # are not on the logistic part of the crossing curve.
    eps = 1e-12
    used = [p for p in probes if lo * (1 - eps) <= p.intensity <= hi * (1 + eps)]
    if len(used) >= 2:
        probes = used
    xs, ys, ws = [], [], []
    for p in probes:
        ptil = (p.successes + 0.5) / (p.replicates + 1.0)
        xs.append(math.log(p.intensity))
        ys.append(math.log(ptil / (1.0 - ptil)))
        ws.append(p.replicates * ptil * (1.0 - ptil))
    line = _weighted_line(np.array(xs), np.array(ys), np.array(ws))
    if line is None or not (line[1] > 0.0) or not math.isfinite(line[1]):
        mid = math.sqrt(lo * hi)
        return mid, lo, hi
    a, b, xbar, sw, sxx = line
    x_hat = -a / b
    # binomial-weight covariance of (a, b)
    var_b = 1.0 / sxx
    var_a = 1.0 / sw + xbar * xbar / sxx
    cov_ab = -xbar / sxx
    var_x = (var_a + 2.0 * x_hat * cov_ab + x_hat * x_hat * var_b) / (b * b)
    half = _Z95 * math.sqrt(max(var_x, 0.0))
    lam = math.exp(x_hat)
    lam = min(max(lam, lo), hi)
    ci_low = min(max(math.exp(x_hat - half), lo), lam)
    ci_high = max(min(math.exp(x_hat + half), hi), lam)
    return lam, ci_low, ci_high


def estimate_threshold(
    d: int,
    length: float,
    law: OrientationLaw,
    side: float,
    replicates: int,
    seed: int,
    axis: int = 0,
    workers: int = 1,
    max_bisect: int = 12,
) -> ThresholdEstimate:
    """Stochastic bisection estimate of the crossing intensity.

    Starting from the theorem lower bound, the intensity is walked
    geometrically until the crossing frequencies straddle 1/2, then bisected
    in log-intensity with a fixed number of replicates per probe.  Bisection
    stops once a probe's Wilson interval contains 1/2 (the noise floor) or
    after ``max_bisect`` probes.  The estimate interpolates frequency 1/2
    from a logistic fit over the whole probe trace.  With ``workers > 1``
    every probe runs on one process pool.
    """
    bounds = theorem_bounds(d, length, law, strict=False)
    if not side >= 8.0 * length:
        raise PreconditionViolated("window side must be at least 8 L")
    if max_bisect < 0:
        raise DomainError("max_bisect must be nonnegative")
    probes: list[CrossingStats] = []

    with _replicate_pool(workers) as pool:
        def probe(lam: float) -> CrossingStats:
            stats = crossing_probability(
                d, length, lam, law, side, replicates, seed,
                axis=axis, workers=workers, probe_id=len(probes), pool=pool,
            )
            probes.append(stats)
            return stats

        # walk up (x2) from a subcritical start, down (x0.5) from a
        # supercritical one, until the last two probes straddle 1/2
        current = probe(bounds.lower)
        up = current.frequency <= 0.5
        while (current.frequency <= 0.5) == up:
            previous = current
            lam = current.intensity * (2.0 if up else 0.5)
            if up and lam > bounds.upper * 10.0:
                raise BracketFailure("no supercritical intensity found below 10x upper bound")
            if not up and lam < bounds.lower / 10.0:
                raise BracketFailure("no subcritical intensity found above lower bound / 10")
            current = probe(lam)
        lam_lo, lam_hi = sorted((previous.intensity, current.intensity))

        straddle = (lam_lo, lam_hi)
        for _ in range(max_bisect):
            mid = math.sqrt(lam_lo * lam_hi)
            current = probe(mid)
            if current.frequency > 0.5:
                lam_hi = mid
            else:
                lam_lo = mid
            if current.ci_low <= 0.5 <= current.ci_high:
                break

    lam_hat, ci_low, ci_high = _logistic_interpolation(probes, straddle[0], straddle[1])
    return ThresholdEstimate(
        d=d,
        length=float(length),
        law=getattr(law, "tag", str(law)),
        side=float(side),
        lambda_hat=lam_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        replicates_per_probe=replicates,
        probes=tuple(probes),
        bracket=(lam_lo, lam_hi),
        seed=int(seed),
    )


def fit_weight(est: ThresholdEstimate) -> float:
    """Inverse-variance weight for the scaling fit, from the estimate's
    confidence interval on the log scale."""
    spread = max(math.log(est.ci_high) - math.log(est.ci_low), 1e-3)
    se = spread / (2.0 * _Z95)
    return 1.0 / (se * se)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    stderr: float
    points: int


def scaling_fit(points) -> ScalingFit:
    """Weighted least squares of ln(lambda) on ln(L).

    ``points`` is an iterable of (L, lambda_hat, weight); needs at least
    three distinct L values.
    """
    pts = [(float(L), float(lam), float(w)) for L, lam, w in points]
    if len({p[0] for p in pts}) < 3:
        raise DegenerateDesign("scaling fit needs at least 3 distinct L values")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    w = np.array([p[2] for p in pts])
    if np.any(w <= 0.0):
        raise DomainError("weights must be positive")
    line = _weighted_line(x, y, w)
    if line is None:
        raise DegenerateDesign("no spread in ln L")
    intercept, slope, _, _, sxx = line
    resid = y - intercept - slope * x
    dof = len(pts) - 2
    sigma2 = float((w * resid ** 2).sum() / dof) if dof > 0 else 0.0
    stderr = math.sqrt(max(sigma2, 0.0) / sxx)
    return ScalingFit(slope=slope, intercept=intercept, stderr=stderr, points=len(pts))


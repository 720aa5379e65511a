"""Cluster analysis and critical-intensity estimation.

Pipeline per configuration: a spatial hash over stick bounding boxes
(broad phase), exact segment-segment distances on the candidate pairs in
cache-sized blocks (narrow phase), array connected components (min-label
hooking with pointer jumping) giving each stick's cluster label, and the
window-crossing test on those labels (``crossing_event``).  The crossing
test runs on batches of replicates clustered together, each replicate in
its own cells; a single configuration is a batch of one.  A probe cuts its
replicates into batches once, and each batch is one task, in process or on
a pool, sampled in one ``poisson_sticks`` pass straight into its rows, so
no replicate builds a ``Configuration`` or is copied again.  On top of that
sit a stochastic bisection for the threshold intensity, whose probes are
the crossing curve it read, and the log-log scaling fit; the two share one
weighted least-squares line.

The pipeline moves its arrays with ``take`` on index arrays and filters
through ``np.flatnonzero``: in numpy 2.x that gathers rows several times
faster than fancy indexing or a boolean mask, and moves the same values.

The broad phase registers each stick in its cells without decoding any
registration from its rank: every stick starts with one packed uint64 key
``((cell code * n + stick) << d) | low-corner bits`` in its lowest cell,
each axis in turn copies the keys of the sticks reaching further up it,
one offset per round, and one in-place value sort of the keys (with
numpy's SIMD sort, over twice as fast as an ``argsort`` of them) orders
the registrations by cell, then stick.

A batch holds its sticks as per-axis rows, ``(d, n)`` arrays whose row k
is axis k of every stick, and its pairs and edges as two int64 index
arrays, the i's and the j's.  So every gather is a 1-d ``take`` and the
narrow phase computes on whole columns: no ``(k, 2)`` or ``(m, d)`` block
is built only to be split again, and no dot product runs an inner loop
only d long.  The index reads the same rows through ``.T`` views.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, CapacityExceeded, DegenerateDesign, DomainError, PreconditionViolated
from .geometry import INTERSECT_THRESHOLD, _segment_distance
from .measures import BoundsReport, theorem_bounds
from .rng import derive_seed, substream
from .sampling import (
    _MAX_EXPECTED_COUNT, _STREAM_CONFIG, BoxRegion, Configuration, OrientationLaw, check_expected_count,
    check_law_dimension, check_window_intensity, poisson_sticks, sampling_box,
)
from .stats import _Z95, wilson_interval

_STREAM_REPLICATE = 0x4EB1
# candidate pairs per narrow-phase block: its three (d, m) gathers and dozen
# m-long kernel columns (about 1.2 MB at d = 3) stay cache-sized however
# large the replicate or batch
_PAIR_CHUNK = 8192
# a probe's replicates are clustered in batches, each closed once it holds
# this many sticks, so numpy's cost per call is shared by small replicates
_BATCH_STICKS = 4096


class UnionFind:
    """Disjoint-set forest over stick indices (path halving + union by rank)."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._rank = [0] * n
        self.count = n

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


def _labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the edges
    (a[k], b[k]) of the two int64 index arrays ``a`` and ``b``: the
    smallest node index in its component.

    Each round hooks every root onto the smallest root it shares an edge
    with, then jumps pointers until every node points at its root
    (Shiloach & Vishkin, J. Algorithms 3, 1982).  Labels only point to
    smaller indices, so the roots are the component minima.
    """
    labels = np.arange(n)
    while True:
        la, lb = labels.take(a), labels.take(b)
        split = np.flatnonzero(la != lb)
        if len(split) == 0:
            return labels
        a, b, la, lb = a.take(split), b.take(split), la.take(split), lb.take(split)
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        jumped = labels.take(labels)
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped.take(jumped)


@dataclass
class SpatialIndex:
    """Uniform-grid broad phase: each stick is registered in every cell its
    radius-1-inflated bounding box overlaps, so any two intersecting sticks
    share at least one cell regardless of cell size."""

    d: int
    # registrations grouped by cell, each cell's group starting at _starts
    _stick_ids: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)
    # per registration, bit k set when the cell is the stick's lowest on axis k
    _low_edges: np.ndarray = field(repr=False)

    def candidate_pairs(self) -> np.ndarray:
        """Index pairs (i < j) sharing at least one cell, each once, as the
        rows of a C-contiguous int64 (k, 2) array; a superset of all
        intersecting pairs."""
        return np.stack(self._pair_ids(), axis=1)

    def _pair_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """``candidate_pairs`` as two int64 index arrays, the i and the j of
        each pair.

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
        all_axes = (1 << self.d) - 1
        low_edges = self._low_edges
        keep = np.flatnonzero((low_edges.take(first) | low_edges.take(second)) == all_axes)
        return self._stick_ids.take(first.take(keep)), self._stick_ids.take(second.take(keep))


def tuned_cell_size(length: float, law) -> float | np.ndarray:
    """Broad-phase cell edge: one per axis, ``0.5 * L * |axis_k| + 2``, for
    a law with a fixed axis, else the isotropic ``L / 2 + 2``."""
    # any cell edges are complete (sticks register in every overlapped cell);
    # an edge near half a stick's extent on that axis keeps registrations
    # few, and across aligned sticks the 2-wide cells hold only neighbours
    axis = getattr(law, "axis", None)
    if axis is None:
        return length / 2.0 + 2.0
    return 0.5 * length * np.abs(axis) + 2.0


def build_index(config: Configuration, cell: float | np.ndarray | None = None) -> SpatialIndex:
    """Hash every stick of ``config`` into the cells overlapped by its
    radius-1-inflated axis-aligned bounding box.  ``cell`` is one edge for
    every axis or one per axis; without it, the isotropic
    ``tuned_cell_size``."""
    return _index(config.centers, config.dirs, config.length, cell, np.zeros(config.count, dtype=np.int64))


def _index(
    centers: np.ndarray, dirs: np.ndarray, length: float, cell: float | np.ndarray | None, replicate: np.ndarray
) -> SpatialIndex:
    """``build_index`` for the sticks (``centers``, ``dirs``) of a batch, in
    which stick i belongs to replicate ``replicate[i]`` (non-decreasing).
    The replicate is the leading digit of each cell code, so no two
    replicates share a cell, and no candidate pair joins them.

    Each registration is one uint64 key ``((cell code * n + stick) << d)
    | low-corner bits``, so the grid's cells times the replicates times
    ``n << d`` must stay below 2^64.  A stick starts with one key, in its
    lowest cell with every low-corner bit set; then, one axis at a time,
    the keys whose stick reaches o cells past its lowest on that axis are
    copied o cells up it with the axis's bit cleared, for o = 1, 2, ...
    up to the largest reach.  One in-place value sort orders the keys by
    cell, then stick, and a shift, a mask and a floor division read the
    three arrays back: no registration is decoded from its rank."""
    n, d = centers.shape
    cell = np.asarray(tuned_cell_size(length, None) if cell is None else cell, dtype=float)
    if cell.shape not in ((), (d,)) or not np.all(np.isfinite(cell) & (cell > 0.0)):
        raise DomainError(f"cell must be a positive finite size, or {d} of them")
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SpatialIndex(d, _stick_ids=empty, _starts=empty, _low_edges=empty)
    half_ext = 0.5 * length * np.abs(dirs) + 1.0
    lo = np.floor((centers - half_ext) / cell).astype(np.int64)
    hi = np.floor((centers + half_ext) / cell).astype(np.int64)
    grid_min = lo.min(axis=0)
    grid_span = hi.max(axis=0) - grid_min + 1
    grid_cells = math.prod(grid_span.tolist())
    if grid_cells * (int(replicate[-1]) + 1) * (n << d) >= 2**64:
        raise DomainError("cell too small: the grid's cell codes overflow")
    # each stick's lowest cell, in the grid's C-order code below the digit
    # of its replicate, and how many cells past it the stick reaches
    strides = [math.prod(grid_span[k + 1 :].tolist()) for k in range(d)]
    codes = replicate * grid_cells
    for k in range(d):
        codes += (lo[:, k] - grid_min[k]) * strides[k]
    extents = hi - lo
    # the keys fill one buffer, base keys first, so no round allocates or
    # copies the keys so far; owner[p] is the stick of key p
    all_axes = (1 << d) - 1
    keys = np.empty(int((extents + 1).prod(axis=1).sum()), dtype=np.uint64)
    keys[:n] = ((codes.astype(np.uint64) * n + np.arange(n, dtype=np.uint64)) << d) | all_axes
    owner = np.empty(len(keys), dtype=np.int64)
    owner[:n] = np.arange(n)
    end = n
    for k in range(d):
        head, head_owner = keys[:end], owner[:end]
        reach = extents[:, k].take(head_owner)
        shift = (strides[k] * n) << d
        sel = np.flatnonzero(reach > 0)
        o = 1
        while len(sel):
            block = slice(end, end + len(sel))
            np.add(head.take(sel), o * shift - (1 << k), out=keys[block])
            owner[block] = head_owner.take(sel)
            end += len(sel)
            sel = sel.take(np.flatnonzero(reach.take(sel) > o))
            o += 1
    # a stick registers once per cell, so the keys are distinct; the read
    # back works in place on the sorted buffer (a floor division and a
    # product, since numpy's divmod of uint64 is several times slower)
    keys.sort()
    low_edges = keys.astype(np.min_scalar_type(all_axes))
    low_edges &= all_axes
    keys >>= d
    codes = keys // n
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    codes *= n
    keys -= codes
    return SpatialIndex(d, _stick_ids=keys.view(np.int64), _starts=starts, _low_edges=low_edges)


def _edges(
    centers: np.ndarray, dirs: np.ndarray, length: float, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (first[p], second[p]) whose sticks intersect, as two index
    arrays.  ``centers`` and ``dirs`` are C-contiguous (d, n) per-axis
    rows; the pairs are tested in blocks of ``_PAIR_CHUNK``."""
    half = 0.5 * length
    keep_first, keep_second = [first[:0]], [second[:0]]
    for lo in range(0, len(first), _PAIR_CHUNK):
        i, j = first[lo : lo + _PAIR_CHUNK], second[lo : lo + _PAIR_CHUNK]
        u = centers.take(i, axis=1) - centers.take(j, axis=1)
        dist = _segment_distance(u, dirs.take(i, axis=1), half, dirs.take(j, axis=1), half)
        hit = np.flatnonzero(dist <= INTERSECT_THRESHOLD)
        keep_first.append(i.take(hit))
        keep_second.append(j.take(hit))
    return np.concatenate(keep_first), np.concatenate(keep_second)


def _check_axis(axis: int, d: int) -> None:
    if not 0 <= axis < d:
        raise DomainError(f"axis must be in [0, {d}), got {axis}")


def _batch_crossings(
    centers: np.ndarray,
    dirs: np.ndarray,
    counts: list[int],
    length: float,
    window: BoxRegion,
    axis: int,
    cell: float | np.ndarray | None,
) -> np.ndarray:
    """Whether each replicate of a batch has one cluster touching both
    faces of ``window`` orthogonal to ``axis``.  ``centers`` and ``dirs``
    are the batch's (d, n) per-axis rows, the first ``counts[0]`` columns
    replicate 0's sticks, and so on; every stick has length ``length``.
    The replicates are clustered together, each in its own cells, so no
    cluster spans two of them."""
    n = centers.shape[1]
    replicate = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pairs = _index(centers.T, dirs.T, length, cell, replicate)._pair_ids()
    labels = _labels(n, *_edges(centers, dirs, length, *pairs))
    reach = 0.5 * length * np.abs(dirs[axis]) + 1.0
    lo_ext = centers[axis] - reach
    hi_ext = centers[axis] + reach
    touch_low = (lo_ext <= window.low[axis]) & (hi_ext >= window.low[axis])
    touch_high = (lo_ext <= window.high[axis]) & (hi_ext >= window.high[axis])
    # a cluster crosses when a stick touching the high face carries the
    # label of one touching the low face
    low_label = np.zeros(n, dtype=bool)
    low_label[labels.take(np.flatnonzero(touch_low))] = True
    high = np.flatnonzero(touch_high)
    spanning = high.take(np.flatnonzero(low_label.take(labels.take(high))))
    crossed = np.zeros(len(counts), dtype=bool)
    crossed[replicate.take(spanning)] = True
    return crossed


def crossing_event(
    config: Configuration, axis: int = 0, cell: float | np.ndarray | None = None
) -> bool:
    """Whether one cluster touches both window faces orthogonal to ``axis``."""
    _check_axis(axis, config.d)
    rows = np.ascontiguousarray(config.centers.T), np.ascontiguousarray(config.dirs.T)
    return bool(_batch_crossings(*rows, [config.count], config.length, config.observation_window, axis, cell)[0])


def _replicate_crossings(task) -> list[bool]:
    """Crossing outcomes of one batch of replicates, sampled in one
    ``poisson_sticks`` call and clustered together.  ``task`` is the
    batch's seeds and the probe's fixed inputs."""
    seeds, d, length, intensity, law, box, window, axis, cell = task
    streams = [substream(s, _STREAM_CONFIG) for s in seeds]
    centers, dirs, counts = poisson_sticks(d, intensity, law, box, streams)
    return _batch_crossings(centers.T, dirs.T, counts, length, window, axis, cell).tolist()


@dataclass(frozen=True)
class CrossingStats:
    intensity: float
    frequency: float
    ci_low: float
    ci_high: float
    successes: int
    replicates: int
    outcomes: tuple[int, ...]


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Let this process serve each task's temporaries from heap pages it
    already holds: arrays up to 32 MiB come from the heap, and up to 64 MiB
    of freed heap top is kept rather than trimmed and faulted back in on
    the next task.  Returns whether both settings took.  Where the C
    library cannot be loaded (Windows: a TypeError) or has no ``mallopt``
    it does nothing; it never raises, since a pool whose initializer
    raises is broken."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # Setting either threshold turns off glibc's dynamic adjustment of both,
    # so both are set, the mmap threshold first: the trim threshold alone
    # would leave every array above 128 KiB mapped and unmapped on each
    # call.  32 MiB is glibc's own ceiling for its dynamic mmap threshold on
    # 64-bit, and the trim threshold is twice it, glibc's own ratio.
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cpusets narrow it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate_pool(workers: int):
    """A process pool of ``workers`` processes, at most one per CPU this
    process may use, when that is more than one, else a context yielding
    None: the replicates then run in process, since a one-process pool adds
    only fork and pickling.  Each worker runs ``_keep_freed_heap`` once, so
    it keeps up to 64 MiB of freed heap between tasks; the caller's own
    allocator is left alone.  The pool starts all its processes at the
    first task, and results do not depend on its size."""
    size = min(workers, _usable_cpus())
    if size == 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=size, initializer=_keep_freed_heap)


def replicate_seeds(seed: int, probe: int, replicates: int) -> list[int]:
    return [derive_seed(seed, _STREAM_REPLICATE, probe, r) for r in range(replicates)]


def _probe(
    executor: Executor | None, d: int, length: float, intensity: float, law: OrientationLaw, side: float,
    replicates: int, seed: int, axis: int, probe_id: int,
) -> CrossingStats:
    """One probe of ``replicates`` window configurations at ``intensity``;
    the caller has checked every other input.  The replicates are cut once
    into batches of about ``_BATCH_STICKS`` expected sticks, and each batch
    is one task, run in process when ``executor`` is None, else on it."""
    window = BoxRegion.cube(d, side)
    box = sampling_box(window, length)
    expected = check_window_intensity(intensity, box)
    # replicates per batch: at least one, at most all
    size = math.ceil(min(_BATCH_STICKS / expected, replicates))
    seeds = replicate_seeds(seed, probe_id, replicates)
    fixed = (d, float(length), intensity, law, box, window, axis, tuned_cell_size(length, law))
    tasks = [(seeds[k : k + size], *fixed) for k in range(0, replicates, size)]
    run = map if executor is None else executor.map
    outcomes = tuple(int(v) for batch in run(_replicate_crossings, tasks) for v in batch)
    successes = sum(outcomes)
    ci_low, ci_high = wilson_interval(successes, replicates)
    return CrossingStats(
        intensity=float(intensity), frequency=successes / replicates, ci_low=ci_low, ci_high=ci_high,
        successes=successes, replicates=replicates, outcomes=outcomes,
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
    # are not on the logistic part of the crossing curve.  The straddle's
    # own two probes are the ends of [lo, hi], so at least two enter.
    eps = 1e-12
    used = [p for p in probes if lo * (1 - eps) <= p.intensity <= hi * (1 + eps)]
    xs, ys, ws = [], [], []
    for p in used:
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


def check_threshold_inputs(
    d: int, length: float, law, side: float, replicates: int, axis: int, workers: int, max_bisect: int
) -> BoundsReport:
    """The checks ``estimate_threshold`` makes before its first probe, for a
    law or its tag, the first probe's expected stick count among them;
    returns the theorem bracket its walk starts from."""
    bounds = theorem_bounds(d, length, law, strict=False)
    check_law_dimension(law, d)
    if not math.isfinite(side):
        raise DomainError(f"window side must be finite, got side = {side}")
    if side < 8.0 * length:
        raise PreconditionViolated("window side must be at least 8 L")
    if max_bisect < 0:
        raise DomainError("max_bisect must be nonnegative")
    if replicates < 1:
        raise DomainError("need at least one replicate")
    if replicates > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"{replicates} replicates exceed guard of {_MAX_EXPECTED_COUNT:.3g}")
    _check_axis(axis, d)
    if workers < 1:
        raise DomainError("workers must be at least 1")
    # the first probe draws at the lower bound in the sampler's box
    check_expected_count(bounds.lower * sampling_box(BoxRegion.cube(d, side), length).volume)
    return bounds


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
    bounds = check_threshold_inputs(d, length, law, side, replicates, axis, workers, max_bisect)
    probes: list[CrossingStats] = []

    with _replicate_pool(workers) as executor:
        def probe(lam: float) -> CrossingStats:
            stats = _probe(executor, d, length, lam, law, side, replicates, seed, axis, len(probes))
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
        law=law.tag,
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


def check_scaling_lengths(lengths) -> None:
    """DegenerateDesign unless ``lengths`` holds at least 3 distinct values."""
    if len(set(lengths)) < 3:
        raise DegenerateDesign("scaling fit needs at least 3 distinct L values")


def scaling_fit(points) -> ScalingFit:
    """Weighted least squares of ln(lambda) on ln(L).

    ``points`` is an iterable of (L, lambda_hat, weight); needs at least
    three distinct L values.
    """
    pts = [(float(L), float(lam), float(w)) for L, lam, w in points]
    check_scaling_lengths([p[0] for p in pts])
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


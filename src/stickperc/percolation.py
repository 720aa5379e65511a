"""Cluster analysis and critical-intensity estimation.

One pipeline, ``_batch_edges``, takes a batch of replicates to its edges:
a spatial hash over stick bounding boxes, each replicate in its own cells
(broad phase), then a packed box test on the candidate pairs and exact
segment-segment distances on those it keeps, in cache-sized blocks
(narrow phase).  Events read the edges; the crossing event
(``_batch_crossings``) labels clusters by array connected components
(min-label hooking with pointer jumping) and tests which replicates have
one touching both window faces.  One configuration is a batch of one
(``crossing_event``).  A probe cuts its replicates into batches once, each
one task, in process or on a pool, sampled in one ``poisson_sticks`` pass
straight into its rows, so no replicate builds a ``Configuration`` or is
copied again.  On top of that sit a stochastic bisection for the threshold
intensity, whose probes are the crossing curve it read, and the log-log
scaling fit; the two share one weighted least-squares line.

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

The candidate pairs are read off the sorted registrations in offset
passes.  A cell's registrations are consecutive, so one whole-array pass
per offset o, up to the largest cell, pairs each registration with the
one o places after it, keeping the pair when both lie in one cell and
their low-corner masks cover every axis: the one cell that reports it.
A pass is a few byte-wide steps per registration, and no array holds
every in-cell pair, of which the low-corner rule drops half or more.

A batch holds its sticks as per-axis rows, ``(d, n)`` arrays whose row k
is axis k of every stick, and its pairs and edges as two int64 index
arrays, the i's and the j's.  So every gather is a 1-d ``take`` and the
narrow phase computes on whole columns: no ``(k, 2)`` or ``(m, d)`` block
is built only to be split again, and no dot product runs an inner loop
only d long.  The index reads the same rows through ``.T`` views.

The box test packs each stick's radius-1-inflated bounding box, per axis
quantized across the batch, into two uint64 words with a guard bit per
axis field, so one pair's test is 4 gathers, two subtractions and a mask
(``_box_words``).  It loses no edge: sticks within distance 2 have
inflated boxes that meet on every axis, quantizing is a monotone floor,
and the high corner's extra step covers the kernel's rounding.  In d = 3
it sends the kernel under a third of the candidate pairs.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, DegenerateDesign, DomainError, PreconditionViolated
from .geometry import INTERSECT_THRESHOLD, _blocks, _segment_distance
from .measures import BoundsReport, theorem_bounds
from .rng import derive_seed, substream
from .sampling import (
    _STREAM_CONFIG, BoxRegion, Configuration, OrientationLaw, check_expected_count, check_integer,
    check_law, check_real, check_runs, check_seed, poisson_sticks, sampling_box,
)
from .stats import _Z95, wilson_interval

_STREAM_REPLICATE = 0x4EB1
# a probe's replicates are clustered in batches, each closed once it holds
# this many sticks, so numpy's cost per call is shared by small replicates
_BATCH_STICKS = 4096


class UnionFind:
    """The per-edge front of ``_labels``: ``union(a, b)`` records an edge, ``labels()``
    is ``_labels`` on them, and ``count`` their components, kept until the next edge."""

    def __init__(self, n: int):
        self._n, self._a, self._b, self._count = n, [], [], n

    def union(self, a: int, b: int) -> None:
        self._a.append(a)
        self._b.append(b)
        self._count = None

    def labels(self) -> np.ndarray:
        labels = _labels(self._n, np.array(self._a, dtype=np.int64), np.array(self._b, dtype=np.int64))
        self._count = int(np.count_nonzero(labels == np.arange(self._n)))  # each minimum labels itself
        return labels

    @property
    def count(self) -> int:
        if self._count is None:
            self.labels()
        return self._count


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
    radius-1-inflated bounding box, widened by ``_index``'s margin,
    overlaps, so any two intersecting sticks share at least one cell
    regardless of cell size."""

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
        each pair, ordered by offset, then registration.

        The shared cells of two sticks form a box whose low corner lies on
        each axis at the lower edge of one of the two sticks; a pair is
        reported only in that cell (Ericson, Real-Time Collision Detection,
        2004, ch. 7).  A cell's registrations are consecutive, so its pairs
        are the registrations (p, p + o) with o at most ``after[p]``, the
        number after p in its cell; one whole-array pass per offset o keeps
        those whose low-corner bits cover every axis and gathers their
        sticks.  With m registrations and c in the largest cell that is
        m (c - 1) byte-wide steps plus the kept pairs, in temporaries of m
        bytes or of the kept pairs: no array has one entry per in-cell pair.
        """
        m = len(self._stick_ids)
        sizes = np.diff(np.append(self._starts, m))
        largest = int(sizes.max(initial=0))
        # registration p pairs with the after[p] ones after it in its cell
        after = (np.repeat(self._starts + sizes, sizes) - np.arange(m) - 1).astype(np.min_scalar_type(largest))
        all_axes = (1 << self.d) - 1
        low_edges, ids = self._low_edges, self._stick_ids
        firsts, seconds = [ids[:0]], [ids[:0]]
        for o in range(1, largest):
            keep = after[: m - o] >= o
            keep &= (low_edges[: m - o] | low_edges[o:]) == all_axes
            p = np.flatnonzero(keep)
            firsts.append(ids.take(p))
            seconds.append(ids[o:].take(p))
        return np.concatenate(firsts), np.concatenate(seconds)


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
    three arrays back: no registration is decoded from its rank.

    The registered box is ``c ± (0.5 L |u| + 1)`` widened by a margin of
    2^-40 S, with S the batch's largest |centre coordinate| plus L + 2,
    which bounds every corner.  Its corners, their quotients by the cell
    and the kernel's distance of two sticks near touching each round by
    some ulps of S, tens at most; the margin is over 4,000 ulps of S, so
    a pair the kernel reads within 2 always shares a cell, down to a
    distance of exactly 2.  It is far below a tuned cell edge (over 2), so
    it adds a registration only where a corner lies within it of a cell
    boundary."""
    n, d = centers.shape
    cell = np.asarray(tuned_cell_size(length, None) if cell is None else cell)
    # a real number or d of them: a string or an object is refused, not converted
    if cell.dtype.kind not in "biuf" or cell.shape not in ((), (d,)) or not np.all(np.isfinite(cell) & (cell > 0)):
        raise DomainError(f"cell must be a positive finite size, or {d} of them")
    cell = cell.astype(float)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SpatialIndex(d, _stick_ids=empty, _starts=empty, _low_edges=empty)
    half_ext = 0.5 * length * np.abs(dirs) + (1.0 + 2.0**-40 * (np.abs(centers).max() + length + 2.0))
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


def _pack(fields: np.ndarray, w: int) -> np.ndarray:
    """Column i of the (axes, n) uint64 ``fields`` as one word, row k in
    the w bits from bit ``w * k``; each field must be below 2^w."""
    shifts = np.arange(0, w * len(fields), w, dtype=np.uint64)[:, None]
    return np.bitwise_or.reduce(fields << shifts, axis=0)


def _box_words(centers: np.ndarray, dirs: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """Each stick's radius-1-inflated bounding box ``c ± (0.5 L |u| + 1)``,
    the box ``_index`` registers less its margin, packed for
    ``_boxes_meet``: the uint64 words ``low`` and ``high`` of every stick
    and the mask of the guards.

    Axis k of the first ``min(d, 32)`` is the w-bit field at bit ``w * k``
    of both words, with ``w = 64 // min(d, 32)`` (at most 32).  There each
    corner is floored onto ``2^(w-1) - 2`` steps across the batch's
    extent, so it lies below the field's top bit, the guard; the high
    corner moves one step up, and its word carries every guard.  Rounding
    and the floor are monotone, so boxes whose corners meet on an axis
    meet on its fields, and the extra step covers a kernel distance that
    rounds down to 2 from just above it."""
    axes = min(len(centers), 32)
    w = 64 // max(axes, 2)
    guard = 1 << (w - 1)
    reach = 0.5 * length * np.abs(dirs[:axes]) + 1.0
    lo, hi = centers[:axes] - reach, centers[:axes] + reach
    base = lo.min(axis=1, keepdims=True)
    scale = (guard - 2) / (hi.max(axis=1, keepdims=True) - base)
    ones = sum(1 << (w * k) for k in range(axes))  # a 1 in every field
    # the corners are at least base, so the cast floors them
    low = _pack(((lo - base) * scale).astype(np.uint64), w)
    high = _pack(((hi - base) * scale).astype(np.uint64), w) + np.uint64((guard + 1) * ones)
    return low, high, np.uint64(guard * ones)


def _boxes_meet(low: np.ndarray, high: np.ndarray, guards: np.uint64, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The positions p at which the packed boxes of sticks i[p] and j[p]
    meet on every field.  A field of ``high[j] - low[i]`` keeps its guard
    exactly when j's high corner is at least i's low one, and as every
    field stays in [1, 2^w), none borrows from the next (Lamport, CACM
    18(8), 1975)."""
    return np.flatnonzero(((high.take(j) - low.take(i)) & (high.take(i) - low.take(j)) & guards) == guards)


def _batch_edges(
    centers: np.ndarray, dirs: np.ndarray, counts: list[int], length: float, cell: float | np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch's edges: each stick's replicate, and the pairs (first[p],
    second[p]) of intersecting sticks as two int64 index arrays.  The batch
    is the C-contiguous (d, n) per-axis rows ``centers`` and ``dirs``, the
    first ``counts[0]`` columns replicate 0's sticks, and so on, each of
    length ``length``; each replicate has its own cells, so no edge joins
    two.  Geometry's blocks keep the candidate pairs whose ``_box_words``
    meet, and the kernel tests those, again in blocks, so its every call
    but the last is full.  No edge is lost: two sticks within distance 2
    have points within 2 on every axis, so their inflated boxes meet."""
    replicate = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    first, second = _index(centers.T, dirs.T, length, cell, replicate)._pair_ids()
    if not len(first):
        return replicate, first, second
    low, high, guards = _box_words(centers, dirs, length)
    meet = np.concatenate(
        [_boxes_meet(low, high, guards, first[rows], second[rows]) + rows.start for rows in _blocks(len(first))]
    )
    first, second = first.take(meet), second.take(meet)
    half = 0.5 * length
    keep_first, keep_second = [first[:0]], [second[:0]]
    for rows in _blocks(len(first)):
        i, j = first[rows], second[rows]
        u = centers.take(i, axis=1) - centers.take(j, axis=1)
        dist = _segment_distance(u, dirs.take(i, axis=1), half, dirs.take(j, axis=1), half)
        hit = np.flatnonzero(dist <= INTERSECT_THRESHOLD)
        keep_first.append(i.take(hit))
        keep_second.append(j.take(hit))
    return replicate, np.concatenate(keep_first), np.concatenate(keep_second)


def _check_axis(axis: int, d: int) -> int:
    """``axis`` as an int; DomainError unless it is an integer in [0, d)."""
    axis = check_integer(axis, "axis", 0)
    if axis >= d:
        raise DomainError(f"axis must be in [0, {d}), got {axis}")
    return axis


def _batch_crossings(
    centers: np.ndarray,
    dirs: np.ndarray,
    counts: list[int],
    length: float,
    window: BoxRegion,
    axis: int,
    cell: float | np.ndarray | None,
) -> np.ndarray:
    """The crossing event on ``_batch_edges``' batch: whether each
    replicate has one cluster touching both faces of ``window`` orthogonal
    to ``axis``.  The replicates are clustered together, and no edge joins
    two of them, so neither does a cluster."""
    n = centers.shape[1]
    replicate, first, second = _batch_edges(centers, dirs, counts, length, cell)
    labels = _labels(n, first, second)
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
    axis = _check_axis(axis, config.d)
    rows = np.ascontiguousarray(config.centers.T), np.ascontiguousarray(config.dirs.T)
    return bool(_batch_crossings(*rows, [config.count], config.length, config.observation_window, axis, cell)[0])


def _replicate_crossings(task) -> list[bool]:
    """Crossing outcomes of one batch of replicates, sampled in one
    ``poisson_sticks`` call and clustered together.  ``task`` is the
    batch's seeds, the probe's intensity and the estimate's design."""
    seeds, intensity, d, length, law, box, window, axis, cell = task
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
    first task, and results do not depend on its size.  The pool is forked
    after ``numpy.random`` is imported, which each worker would otherwise
    import at its first task (14-25 ms); at module import it would cost
    every process, pooled or not."""
    size = min(workers, _usable_cpus())
    if size == 1:
        return nullcontext()
    import numpy.random  # noqa: F401
    return ProcessPoolExecutor(max_workers=size, initializer=_keep_freed_heap)


def replicate_seeds(seed: int, probe: int, replicates: int) -> list[int]:
    return [derive_seed(seed, _STREAM_REPLICATE, probe, r) for r in range(replicates)]


def _probe(
    executor: Executor | None, design: tuple, intensity: float, replicates: int, seed: int, probe_id: int
) -> CrossingStats:
    """One probe of ``replicates`` window configurations at ``intensity`` on
    ``check_threshold_inputs``'s ``design``, checking only the intensity's
    expected stick count.  The replicates are cut once into batches of about
    ``_BATCH_STICKS`` expected sticks, and each batch is one task, run in
    process when ``executor`` is None, else on it."""
    box = design[3]
    expected = check_expected_count(intensity * box.volume)
    # replicates per batch: at least one, at most all
    size = math.ceil(min(_BATCH_STICKS / expected, replicates))
    seeds = replicate_seeds(seed, probe_id, replicates)
    tasks = [(seeds[k : k + size], intensity, *design) for k in range(0, replicates, size)]
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
    d: int, length: float, law, side: float, replicates: int, seed: int, axis: int, workers: int, max_bisect: int
) -> tuple[BoundsReport, int, int, int, int, tuple]:
    """Every check ``estimate_threshold`` makes, on its arguments in its order,
    the first probe's expected stick count among them.  Returns the theorem
    bracket its walk starts from (with the checked d and L), the checked
    ``replicates``, ``seed``, ``workers`` and ``max_bisect``, and the probes'
    design: the checked ``(d, L, law, sampling box, window, axis, cell)``."""
    bounds = theorem_bounds(d, length, law, strict=False)
    d, length = bounds.d, bounds.length
    check_law(law, d)
    window = BoxRegion.cube(d, side)
    if side < 8.0 * length:
        raise PreconditionViolated(f"the estimator needs side >= 8 L, got side = {side}, L = {length}")
    max_bisect = check_integer(max_bisect, "max_bisect", 0)
    replicates = check_integer(replicates, "replicates", 1)
    check_runs(replicates, "replicates")
    axis = _check_axis(axis, d)
    workers = check_integer(workers, "workers", 1)
    box = sampling_box(window, length)
    # the first probe draws at the lower bound
    check_expected_count(bounds.lower * box.volume)
    seed = check_seed(seed)
    design = (d, length, law, box, window, axis, tuned_cell_size(length, law))
    return bounds, replicates, seed, workers, max_bisect, design


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
    checked = check_threshold_inputs(d, length, law, side, replicates, seed, axis, workers, max_bisect)
    bounds, replicates, seed, workers, max_bisect, design = checked
    probes: list[CrossingStats] = []

    with _replicate_pool(workers) as executor:
        def probe(lam: float) -> CrossingStats:
            stats = _probe(executor, design, lam, replicates, seed, len(probes))
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
        d=bounds.d,
        length=bounds.length,
        law=law.tag,
        side=float(side),
        lambda_hat=lam_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        replicates_per_probe=replicates,
        probes=tuple(probes),
        bracket=(lam_lo, lam_hi),
        seed=seed,
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


def check_scaling_lengths(lengths) -> None:
    """DegenerateDesign unless ``lengths`` holds at least 3 distinct values."""
    if len(set(lengths)) < 3:
        raise DegenerateDesign("scaling fit needs at least 3 distinct L values")


def scaling_fit(points) -> ScalingFit:
    """Weighted least squares of ln(lambda) on ln(L).

    ``points`` is an iterable of (L, lambda_hat, weight), each positive and
    finite; needs at least three distinct L values.
    """
    nouns = ("scaling point L", "scaling point lambda", "scaling point weight")
    pts = [tuple(check_real(v, noun, "(0, inf)") for v, noun in zip((L, lam, w), nouns)) for L, lam, w in points]
    check_scaling_lengths([p[0] for p in pts])
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    w = np.array([p[2] for p in pts])
    line = _weighted_line(x, y, w)
    if line is None:
        raise DegenerateDesign("no spread in ln L")
    intercept, slope, _, _, sxx = line
    resid = y - intercept - slope * x
    dof = len(pts) - 2
    sigma2 = float((w * resid ** 2).sum() / dof) if dof > 0 else 0.0
    stderr = math.sqrt(max(sigma2, 0.0) / sxx)
    return ScalingFit(slope=slope, intercept=intercept, stderr=stderr)


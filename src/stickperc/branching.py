"""Branching-process view of stick clusters.

The number of sticks hitting a fixed stick is the offspring count of the
dominating Galton-Watson process; this module estimates its mean by Monte
Carlo, runs the dominating process from stored offspring samples, and
explores real components generation by generation so domination can be
observed pathwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, DomainError
from .geometry import INTERSECT_THRESHOLD, Segment, segment_distance_arrays
from .rng import substream
from .sampling import (
    _MAX_EXPECTED_COUNT, _MAX_POPULATION, BoxRegion, OrientationLaw, check_expected_count, check_intensity,
    poisson_sticks,
)

_STREAM_OFFSPRING = 0x0FF5
_STREAM_GW = 0x6A17
_STREAM_EXPLORE = 0xE821

# any stick of length L intersecting a fixed stick has its center within
# L/2 + 2 of that stick's segment; L + 4 of box padding is a safe superset
def offspring_box(seg: Segment, length: float) -> BoxRegion:
    reach = seg.half * np.abs(seg.direction)
    pad = length + 4.0
    return BoxRegion(seg.center - reach - pad, seg.center + reach + pad)


def _overlaps(centers, dirs, length, seg: Segment) -> np.ndarray:
    """Which of the sticks (``centers``, ``dirs``, ``length``) overlap the
    stick around ``seg``."""
    dist = segment_distance_arrays(centers, dirs, length, seg.center, seg.direction, seg.length)
    return dist <= INTERSECT_THRESHOLD


@dataclass(frozen=True)
class OffspringEstimate:
    mean: float
    stderr: float
    trials: int
    samples: tuple[int, ...]


def offspring_mean_mc(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    seed_segment: Segment,
    trials: int,
    seed: int,
) -> OffspringEstimate:
    """Sample mean of the number of Poisson sticks intersecting the stick
    around ``seed_segment``.

    Each trial draws a fresh Poisson configuration in a box provably
    containing every center that could intersect the seed and counts the
    intersecting sticks.  The standard error needs at least two trials; as
    each trial keeps its count, more than the stick guard's 5e5 are refused.
    """
    if trials < 2:
        raise DomainError("need at least two trials")
    if trials > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"{trials} trials exceed guard of {_MAX_EXPECTED_COUNT:.3g}")
    box = offspring_box(seed_segment, length)
    rng = substream(seed, _STREAM_OFFSPRING)
    mean_count = check_expected_count(check_intensity(intensity) * box.volume)
    counts = rng.poisson(mean_count, size=trials).astype(np.int64)
    samples = np.zeros(trials, dtype=np.int64)
    # process trial blocks of at most the guard's expected count of sticks
    block_trials = max(1, int(_MAX_EXPECTED_COUNT / max(mean_count, 1.0)))
    for lo in range(0, trials, block_trials):
        block = counts[lo : lo + block_trials]
        total = int(block.sum())
        if total == 0:
            continue
        centers = rng.uniform(box.low, box.high, size=(total, d))
        dirs = law.sample_directions(rng, d, total)
        hits = _overlaps(centers, dirs, length, seed_segment).astype(np.int64)
        # reduce at the starts of the non-empty trials only: their starts
        # strictly increase, so each sum runs up to the next trial's start
        filled = np.flatnonzero(block)
        starts = np.cumsum(block) - block
        samples[lo + filled] = np.add.reduceat(hits, starts[filled])
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    return OffspringEstimate(mean=mean, stderr=stderr, trials=trials, samples=tuple(int(v) for v in samples))


@dataclass(frozen=True)
class GWReport:
    generation_sizes: tuple[int, ...]
    truncated: bool

    @property
    def extinct(self) -> bool:
        return not self.truncated and (len(self.generation_sizes) == 0 or self.generation_sizes[-1] == 0)


def check_caps(max_generations: int, population_cap: int) -> None:
    """DomainError unless both caps are positive, CapacityExceeded if a
    generation under ``population_cap`` could outgrow memory."""
    if max_generations < 1 or population_cap < 1:
        raise DomainError("caps must be positive")
    if population_cap > _MAX_POPULATION:
        raise CapacityExceeded(f"population cap {population_cap} exceeds guard of {_MAX_POPULATION:.3g}")


def dominating_gw_run(
    offspring_samples,
    max_generations: int,
    population_cap: int,
    seed: int,
) -> GWReport:
    """Galton-Watson run whose offspring law is the empirical distribution of
    ``offspring_samples``; generation sizes start with the root's own
    offspring draw and stop at extinction or a cap."""
    samples = np.asarray(offspring_samples, dtype=np.int64)
    if len(samples) == 0:
        raise DomainError("need at least one stored offspring sample")
    check_caps(max_generations, population_cap)
    rng = substream(seed, _STREAM_GW)
    sizes: list[int] = []
    population = 1
    truncated = False
    for _ in range(max_generations):
        draws = samples[rng.integers(0, len(samples), size=population)]
        population = int(draws.sum())
        sizes.append(population)
        if population == 0:
            break
        if population > population_cap:
            truncated = True
            break
    else:
        truncated = population > 0
    return GWReport(generation_sizes=tuple(sizes), truncated=truncated)


@dataclass(frozen=True)
class ExplorationResult:
    generation_sizes: tuple[int, ...]
    component_size: int
    window_exceeded: bool
    truncated: bool
    dominating_sizes: tuple[int, ...]


def _hits_any(segments: list[Segment], centers, dirs, length: float) -> np.ndarray:
    """Which of the sticks (``centers``, ``dirs``, ``length``) overlap at
    least one of ``segments``."""
    out = np.zeros(centers.shape[0], dtype=bool)
    for seg in segments:
        idx = np.flatnonzero(~out)
        if len(idx) == 0:
            break
        out[idx] |= _overlaps(centers[idx], dirs[idx], length, seg)
    return out


def _fresh_offspring_count(
    rng: np.random.Generator,
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    seg: Segment,
    explored: list[Segment] | None,
) -> int:
    """Count sticks of a fresh Poisson draw hitting the stick around ``seg``;
    when ``explored`` is given, count only those also hitting one of its
    segments (the compensation term of the exploration coupling)."""
    centers, dirs = poisson_sticks(d, intensity, law, offspring_box(seg, length), rng)
    hit = _overlaps(centers, dirs, length, seg)
    if explored is None:
        return int(hit.sum())
    return int(_hits_any(explored, centers[hit], dirs[hit], length).sum())


def component_exploration(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    seed_segment: Segment,
    max_generations: int,
    population_cap: int,
    seed: int,
) -> ExplorationResult:
    """Explore the true component of the stick around ``seed_segment``
    generation by generation in one sampled configuration, restricted to a
    window of radius max_generations * (L + 4) around the seed.

    The run also drives the coupled dominating branching process: each
    explored stick's offspring count is topped up with a fresh compensation
    draw (sticks hitting it and the already explored region), and surplus
    individuals reproduce via fresh offspring draws around their own stick,
    so dominating sizes are pathwise at least the true generation sizes.
    """
    check_caps(max_generations, population_cap)
    rng = substream(seed, _STREAM_EXPLORE)
    radius = max_generations * (length + 4.0)
    window = BoxRegion(seed_segment.center - radius, seed_segment.center + radius)
    centers, dirs = poisson_sticks(d, intensity, law, window, rng)
    unexplored = np.ones(len(centers), dtype=bool)
    reach = 0.5 * length * np.abs(dirs) + 1.0
    at_boundary = np.any((centers - reach <= window.low) | (centers + reach >= window.high), axis=1)

    # compensation conditions on the sticks whose neighborhoods were already
    # searched (that is where the configuration has been consumed)
    processed: list[Segment] = []
    truncated = False

    # queue entries: an explored stick's segment, or None for a surplus
    # individual of the dominating process
    current: list[Segment | None] = [seed_segment]
    actual_sizes: list[int] = []
    dominating_sizes: list[int] = []
    component_size = 1  # the seed stick itself

    for _ in range(max_generations):
        next_queue: list[Segment | None] = []
        actual_next = 0
        dom_next = 0
        for seg in current:
            if seg is None:
                # fresh offspring draw around a fresh stick of the same law
                direction = law.sample_directions(rng, d, 1)[0]
                fresh = Segment(np.zeros(d), direction, length)
                kids = _fresh_offspring_count(rng, d, length, intensity, law, fresh, None)
                dom_next += kids
                next_queue.extend([None] * kids)
                continue
            # children actually present in the configuration
            idx = np.flatnonzero(unexplored)
            children_idx = idx[_overlaps(centers[idx], dirs[idx], length, seg)]
            unexplored[children_idx] = False
            actual_next += len(children_idx)
            next_queue.extend(Segment(centers[ci], dirs[ci], length) for ci in children_idx)
            extra = _fresh_offspring_count(rng, d, length, intensity, law, seg, processed)
            dom_next += len(children_idx) + extra
            next_queue.extend([None] * extra)
            processed.append(seg)
        component_size += actual_next
        actual_sizes.append(actual_next)
        dominating_sizes.append(dom_next)
        if dom_next == 0:
            break
        if dom_next > population_cap:
            truncated = True
            break
        current = next_queue
    else:
        truncated = dom_next > 0

    return ExplorationResult(
        generation_sizes=tuple(actual_sizes),
        component_size=component_size,
        window_exceeded=bool(at_boundary[~unexplored].any()),
        truncated=truncated,
        dominating_sizes=tuple(dominating_sizes),
    )

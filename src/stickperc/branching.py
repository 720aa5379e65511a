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
from .geometry import INTERSECT_THRESHOLD, segment_distance_arrays
from .rng import substream
from .sampling import (
    _MAX_EXPECTED_COUNT, _MAX_POPULATION, BoxRegion, OrientationLaw, Rigid, check_dim, check_expected_count,
    check_intensity, check_law_dimension, check_length, place_sticks, poisson_sticks,
)

_STREAM_OFFSPRING = 0x0FF5
_STREAM_GW = 0x6A17
_STREAM_EXPLORE = 0xE821


def _seed_stick(d: int, length: float, law: OrientationLaw) -> tuple[np.ndarray, np.ndarray]:
    """Center and direction of the typical stick, whose cluster the branching
    process dominates: the laws are translation invariant and the uniform one
    is isotropic, so it is centered at 0 and lies along ``law.axis`` for a
    rigid law, along e_0 otherwise."""
    d = check_dim(d)
    check_length(length)
    check_law_dimension(law, d)
    return np.zeros(d), law.axis if isinstance(law, Rigid) else np.eye(d)[0]


# any stick of length L intersecting a fixed stick has its center within
# L/2 + 2 of that stick's segment; L + 4 of box padding is a safe superset
def offspring_box(center, direction, length: float) -> BoxRegion:
    reach = 0.5 * length * np.abs(direction)
    pad = length + 4.0
    return BoxRegion(center - reach - pad, center + reach + pad)


def _overlaps(centers, dirs, length, center, direction) -> np.ndarray:
    """Which of the sticks (``centers``, ``dirs``, ``length``) overlap the
    stick at (``center``, ``direction``); the arrays broadcast."""
    return segment_distance_arrays(centers, dirs, length, center, direction, length) <= INTERSECT_THRESHOLD


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
    trials: int,
    seed: int,
) -> OffspringEstimate:
    """Sample mean of the number of Poisson sticks intersecting the typical
    stick (see ``_seed_stick``).

    Each trial draws a fresh Poisson configuration in a box provably
    containing every center that could intersect the seed and counts the
    intersecting sticks.  The standard error needs at least two trials; as
    each trial keeps its count, more than the stick guard's 5e5 are refused.
    """
    center, direction = _seed_stick(d, length, law)
    if trials < 2:
        raise DomainError("need at least two trials")
    if trials > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"{trials} trials exceed guard of {_MAX_EXPECTED_COUNT:.3g}")
    box = offspring_box(center, direction, length)
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
        centers, dirs = place_sticks(d, law, box, [rng], [total])
        hits = _overlaps(centers, dirs, length, center, direction).astype(np.int64)
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


def component_exploration(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    max_generations: int,
    population_cap: int,
    seed: int,
) -> ExplorationResult:
    """Explore the true component of the typical stick (see ``_seed_stick``)
    generation by generation in one sampled configuration, restricted to a
    window of radius max_generations * (L + 4) around the seed.

    The run also drives the coupled dominating branching process: each
    explored stick's offspring count is topped up with a fresh compensation
    draw (sticks hitting it and the already explored region), and surplus
    individuals reproduce via fresh offspring draws around their own stick,
    so dominating sizes are pathwise at least the true generation sizes.
    """
    seed_center, seed_dir = _seed_stick(d, length, law)
    check_caps(max_generations, population_cap)
    rng = substream(seed, _STREAM_EXPLORE)
    radius = max_generations * (length + 4.0)
    window = BoxRegion(seed_center - radius, seed_center + radius)
    centers, dirs, _ = poisson_sticks(d, intensity, law, window, [rng])
    reach = 0.5 * length * np.abs(dirs) + 1.0
    at_boundary = np.any((centers - reach <= window.low) | (centers + reach >= window.high), axis=1)
    # the seed is the last row of the sample, explored from the start
    centers = np.vstack([centers, seed_center])
    dirs = np.vstack([dirs, seed_dir])
    unexplored = np.append(np.ones(len(at_boundary), dtype=bool), False)

    # compensation conditions on the sticks whose neighborhoods were already
    # searched (that is where the configuration has been consumed)
    processed: list[int] = []
    truncated = False

    # queue entries: an explored stick's row, or -1 for a surplus individual
    # of the dominating process
    current = [len(centers) - 1]
    actual_sizes: list[int] = []
    dominating_sizes: list[int] = []

    for _ in range(max_generations):
        next_queue: list[int] = []
        actual_next = 0
        for row in current:
            if row < 0:
                # a surplus individual reproduces around a fresh stick of the
                # same law, and every stick hitting it is fresh offspring
                center, direction = np.zeros(d), law.sample_directions(rng, d, 1)[0]
            else:
                # children actually present in the configuration
                center, direction = centers[row], dirs[row]
                idx = np.flatnonzero(unexplored)
                children = idx[_overlaps(centers[idx], dirs[idx], length, center, direction)]
                unexplored[children] = False
                actual_next += len(children)
                next_queue.extend(children.tolist())
            box = offspring_box(center, direction, length)
            fresh_centers, fresh_dirs, _ = poisson_sticks(d, intensity, law, box, [rng])
            fresh = np.flatnonzero(_overlaps(fresh_centers, fresh_dirs, length, center, direction))
            if row >= 0:
                # compensation: of the fresh sticks hitting an explored one,
                # only those also hitting a processed stick count
                fc, fd = fresh_centers[fresh, None], fresh_dirs[fresh, None]
                fresh = fresh[_overlaps(fc, fd, length, centers[processed], dirs[processed]).any(axis=1)]
                processed.append(row)
            next_queue.extend([-1] * len(fresh))
        dom_next = len(next_queue)
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
        component_size=1 + sum(actual_sizes),  # the seed and every explored generation
        window_exceeded=bool(at_boundary[~unexplored[:-1]].any()),
        truncated=truncated,
        dominating_sizes=tuple(dominating_sizes),
    )

"""Oriented percolation on the even sublattice of the upper half-plane.

A frontier at level n is the set of occupied sites (x, n) with x + n even.
Two update variants share the same conditional law shape: a child with both
predecessors occupied turns on with probability beta, with exactly one with
probability alpha, otherwise stays empty.  Each occupied parent has a left
and a right arrow, each open with probability alpha.  A bond child opens
when any arrow into it is open, so beta = 1 - (1 - alpha)^2; a site child
reads only the first arrow that reaches it (its left parent's right arrow,
else its right parent's left arrow), so beta = alpha.  Driven by a stream,
that arrow is the next draw; on the keyed field it is an arrow bond reads,
so a coupled site step lies within the bond step (verify checks it).  As
the arrow read depends on the parents, site is not monotone in alpha, so
the coupled survival runs are bond's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .rng import combine_keys, derive_seed, mix_to_unit, substream
from .sampling import check_choice, check_integer, check_real, check_runs, check_seed
from .stats import wilson_interval

_STREAM_TRIAL = 0x0B5E
VARIANTS = ("bond", "site")

_KEY_LEFT = 11
_KEY_RIGHT = 13
_STEPS = np.array([-1, 1], dtype=np.int64)  # left and right child
_BATCH_RUNS = 256  # coupled runs per packed array


@dataclass(frozen=True)
class Frontier:
    """Occupied set at one level; sites are stored as sorted unique x values."""

    level: int
    occupied: np.ndarray

    def __post_init__(self):
        level = check_integer(self.level, "level", 0)
        occ = self.occupied
        if not (isinstance(occ, np.ndarray) and occ.dtype.kind in "bi"):  # a signed integer array needs no test
            occ = np.asarray(occ, dtype=object).ravel()  # sites as Python numbers: exact at any size
            try:
                with np.errstate(invalid="ignore"):  # inf % 1
                    ok = (occ % 1 == 0) & (occ >= -(2**63)) & (occ < 2**63)
            except TypeError:
                ok = np.zeros(occ.size, dtype=bool)
            if not np.all(ok):
                raise DomainError(f"sites must be integers in the int64 range, got {occ[~ok][0]!r}")
        occ = np.unique(np.asarray(occ, dtype=np.int64))
        if occ.size and np.any((occ + level) % 2 != 0):
            raise DomainError("sites must satisfy x + level even")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "occupied", occ)

    @property
    def alive(self) -> bool:
        return self.occupied.size > 0

    @staticmethod
    def origin() -> "Frontier":
        return Frontier(0, np.zeros(1, dtype=np.int64))


def _arrow_heads(sites: np.ndarray) -> np.ndarray:
    """x - 1, x + 1 of each of the sorted sites, interleaved.  One run's
    sites share a parity and ``_Bands`` keep runs apart, so sites lie at
    least 2 apart: the result is sorted, and a child of two parents appears
    twice, adjacent, first as its left parent's right arrow."""
    return (sites[:, None] + _STEPS).ravel()


def _check_children_fit(sites: np.ndarray) -> None:
    """DomainError if a child x - 1 or x + 1 of the int64 ``sites`` leaves
    int64, that is if a site is at either end of it."""
    ends = sites[(sites == np.iinfo(np.int64).min) | (sites == np.iinfo(np.int64).max)]
    if ends.size:
        raise DomainError(f"site {ends[0]} has a child outside the int64 range")


def _first_of_each(values: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal, adjacent values."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


class _Bands(NamedTuple):
    """The packed layout of runs that step together in one sorted array:
    run r's site x is stored as ``r * width + x + offset``."""

    width: int
    offset: int

    @classmethod
    def spanning(cls, lo: int, hi: int) -> "_Bands":
        """Bands that hold every x - 1 and x + 1 of sites in [lo, hi], so runs
        never touch, with an even width, so runs at one level share a parity."""
        width = hi - lo + 4
        return cls(width + width % 2, 2 - lo)

    def pack(self, run, x):
        return run * self.width + x + self.offset

    def unpack(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run and x of each packed site."""
        run = sites // self.width
        return run, sites - run * self.width - self.offset


def _step(sites: np.ndarray, level, variant: str, opens) -> np.ndarray:
    """Sorted children of the sorted sites of one parity: ``opens(level,
    parents, key)`` says which ``key`` arrows of the ``parents`` are open;
    bond reads every arrow, site each candidate child's first arrow."""
    heads = _arrow_heads(sites)
    if variant == "bond":
        arrows = np.stack((opens(level, sites, _KEY_LEFT), opens(level, sites, _KEY_RIGHT)), axis=1)
        children = heads[arrows.ravel()]
        return children[_first_of_each(children)]
    first = np.flatnonzero(_first_of_each(heads))
    # combine_keys mixes a key as an int or an array element alike: site reads bond's arrows
    keys = np.where(first % 2, _KEY_RIGHT, _KEY_LEFT)
    return heads.take(first)[opens(level, sites.take(first // 2), keys)]


def _field(trial_key, level: int, x: np.ndarray, key: int) -> np.ndarray:
    # the same arrow sees the same uniform at every alpha: the couplings need that
    return mix_to_unit(combine_keys(trial_key, level, x, key))


def op_step(frontier: Frontier, alpha: float, variant: str, stream: np.random.Generator) -> Frontier:
    """One synchronous update of the frontier.

    Bond: two stream uniforms per occupied parent (left arrows then right
    arrows, parents in sorted order).  Site: one stream uniform per candidate
    child (sorted order), its first arrow.  A site at either end of int64,
    whose child would leave it, is refused before any draw.
    """
    alpha = check_real(alpha, "alpha", "[0, 1]")
    variant = check_choice(variant, "variant", VARIANTS)
    _check_children_fit(frontier.occupied)
    children = _step(
        frontier.occupied, frontier.level, variant, lambda level, sites, key: stream.random(sites.size) < alpha
    )
    return Frontier(frontier.level + 1, children)


def _coupled_steps(levels: np.ndarray, trial_keys, run: np.ndarray, x: np.ndarray, alpha: float):
    """Site and bond updates of many frontiers at once, on shared arrow
    uniforms, packed in ``_Bands`` spanning the sites: returns the bands and
    the packed site and bond children.

    Frontier r is at level ``levels[r]``, reads the keyed field of the int
    ``trial_keys[r]`` mod 2^64 and holds the sites ``x[run == r]`` of its
    level's parity, in any order and with repeats; as in ``op_step``, a site
    at either end of int64 is refused, and so is a layout whose packed
    sites, in [0, runs * width), or whose offset leave int64, before any
    draw.  Both variants run ``_step`` on the same field.
    """
    alpha = check_real(alpha, "alpha", "[0, 1]")
    _check_children_fit(x)
    lo, hi = (int(x.min()), int(x.max())) if x.size else (0, 0)
    bands = _Bands.spanning(lo, hi)
    runs = int(run.max()) + 1 if x.size else 0
    if runs * bands.width >= 2**63 or bands.offset >= 2**63:
        raise DomainError(f"{runs} packed runs of sites in [{lo}, {hi}] overflow int64")
    sites = np.unique(bands.pack(run, x))
    keys = np.array([int(key) % 2**64 for key in trial_keys], dtype=np.uint64)

    def opens(level, parents, key):
        parent_run, parent_x = bands.unpack(parents)
        return _field(keys[parent_run], level[parent_run], parent_x, key) < alpha

    return bands, _step(sites, levels, "site", opens), _step(sites, levels, "bond", opens)


def _extinction_levels(trials: int, k: int, variant: str, n_max: int, batch_opens) -> np.ndarray:
    """Level at which each of k runs per trial dies out from the origin, -1
    if alive after n_max steps, as a (trials, k) array.

    Up to _BATCH_RUNS runs advance together in one sorted array, so only the
    result grows with trials (more than the stick guard's 5e5 runs are
    refused), packed in ``_Bands`` spanning every site that n_max steps can
    reach.  ``batch_opens(batch)`` gives the ``opens(level, run, x, key)``
    of the trials in the range ``batch``, in which run i * k + j is the
    j-th run of trial batch[i].  The callers check ``trials`` and ``n_max``;
    an n_max whose largest batch's packed sites, in [0, widest * width),
    overflow int64 is refused before any draw.
    """
    check_runs(trials * k, "runs")
    bands = _Bands.spanning(-n_max, n_max)
    size = max(1, _BATCH_RUNS // max(k, 1))
    widest = min(size, trials) * k  # runs in the largest batch
    if widest * bands.width > 2**63:
        raise DomainError(f"n_max too large: {widest} packed runs of n_max = {n_max} overflow int64")
    levels = np.full(trials * k, -1, dtype=np.int64)
    for first in range(0, trials, size):
        batch = range(first, min(first + size, trials))
        opens = batch_opens(batch)

        def packed_opens(level, sites, key):
            return opens(level, *bands.unpack(sites), key)

        runs = levels[batch.start * k : batch.stop * k]  # a view: filling it fills levels
        sites = bands.pack(np.arange(runs.size, dtype=np.int64), 0)
        alive = np.ones(runs.size, dtype=bool)
        for level in range(n_max):
            if not sites.size:
                break
            sites = _step(sites, level, variant, packed_opens)
            still = np.zeros(runs.size, dtype=bool)
            still[sites // bands.width] = True
            runs[alive & ~still] = level + 1
            alive = still
    return levels.reshape(trials, k)


@dataclass(frozen=True)
class SurvivalStats:
    alpha: float
    variant: str
    n_max: int
    trials: int
    survivors: int
    fraction: float
    ci_low: float
    ci_high: float
    extinction_levels: tuple[int, ...]  # -1 when the trial survived


def survival_probability(
    alpha: float, variant: str, n_max: int, trials: int, seed: int
) -> SurvivalStats:
    """Fraction of trials from the origin whose frontier is alive at n_max."""
    alpha = check_real(alpha, "alpha", "[0, 1]")
    variant = check_choice(variant, "variant", VARIANTS)
    n_max, trials = check_integer(n_max, "n_max", 1), check_integer(trials, "trials", 1)
    seed = check_seed(seed)

    def batch_opens(batch):
        streams = [substream(seed, _STREAM_TRIAL, t) for t in batch]

        def opens(level, run, x, key):
            # each live trial reads its own stream's next draws, in run order
            sizes = np.bincount(run, minlength=len(batch))
            return np.concatenate([streams[r].random(sizes[r]) for r in np.flatnonzero(sizes)]) < alpha

        return opens

    levels = _extinction_levels(trials, 1, variant, n_max, batch_opens)[:, 0].tolist()
    survivors = levels.count(-1)
    ci_low, ci_high = wilson_interval(survivors, trials)
    return SurvivalStats(
        alpha=alpha,
        variant=variant,
        n_max=n_max,
        trials=trials,
        survivors=survivors,
        fraction=survivors / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        extinction_levels=tuple(levels),
    )


def coupled_survival_matrix(alphas, n_max: int, trials: int, seed: int) -> np.ndarray:
    """Bond survival indicators (trials x alphas) on shared driving uniforms."""
    alphas = [check_real(a, "alpha", "[0, 1]") for a in alphas]
    if sorted(alphas) != alphas:
        raise DomainError("alpha list must be sorted ascending")
    n_max, trials = check_integer(n_max, "n_max", 1), check_integer(trials, "trials", 1)
    seed = check_seed(seed)
    k = len(alphas)
    alpha_values = np.array(alphas)

    def batch_opens(batch):
        trial_keys = np.array([derive_seed(seed, _STREAM_TRIAL, t) for t in batch], dtype=np.uint64)

        def opens(level, run, x, key):
            # run i * k + j is trial batch[i] at alphas[j]
            return _field(trial_keys[run // k], level, x, key) < alpha_values[run % k]

        return opens

    levels = _extinction_levels(trials, k, "bond", n_max, batch_opens)
    return (levels < 0).astype(np.int64)


def coupled_survival_monotonicity(alphas, n_max: int, trials: int, seed: int) -> bool:
    """True iff bond survival is non-decreasing in alpha in every coupled
    trial, as it is by construction: a larger alpha opens a superset of arrows."""
    matrix = coupled_survival_matrix(alphas, n_max, trials, seed)
    return bool(np.all(np.diff(matrix, axis=1) >= 0))

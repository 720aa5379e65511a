"""Oriented percolation on the even sublattice of the upper half-plane.

A frontier at level n is the set of occupied sites (x, n) with x + n even.
Two update variants share the same conditional law shape: a child with both
predecessors occupied turns on with probability beta, with exactly one with
probability alpha, otherwise stays empty.  In the bond variant each
occupied parent throws an independent left and right arrow with probability
alpha, so beta = 1 - (1 - alpha)^2 emerges structurally; in the site
variant each candidate child draws a single uniform, so beta = alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import combine_keys, derive_seed, mix_to_unit, substream
from .stats import wilson_interval

_STREAM_TRIAL = 0x0B5E
VARIANTS = ("bond", "site")

_KEY_LEFT = 11
_KEY_RIGHT = 13
_KEY_SITE = 17


@dataclass(frozen=True)
class Frontier:
    """Occupied set at one level; sites are stored as sorted unique x values."""

    level: int
    occupied: np.ndarray

    def __post_init__(self):
        occ = np.unique(np.asarray(self.occupied, dtype=np.int64))
        if self.level < 0:
            raise DomainError("level must be nonnegative")
        if occ.size and np.any((occ + self.level) % 2 != 0):
            raise DomainError("sites must satisfy x + level even")
        object.__setattr__(self, "occupied", occ)

    @property
    def alive(self) -> bool:
        return self.occupied.size > 0

    @staticmethod
    def origin() -> "Frontier":
        return Frontier(0, np.array([0], dtype=np.int64))


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        if alpha in (0.0, 1.0):  # allow the degenerate endpoints for tests
            return float(alpha)
        raise DomainError("alpha must lie in (0, 1)")
    return float(alpha)


def _check_variant(variant: str) -> str:
    v = variant.lower()
    if v not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}")
    return v


def bond_beta(alpha: float) -> float:
    return 1.0 - (1.0 - alpha) ** 2


def _step(frontier: Frontier, alpha: float, variant: str, uniforms) -> Frontier:
    """The update rule, reading ``uniforms(level, sites, key)``: bond arrows at
    the parent's level, site draws at the child's."""
    parents = frontier.occupied
    level = frontier.level
    if variant == "bond":
        left = uniforms(level, parents, _KEY_LEFT) < alpha
        right = uniforms(level, parents, _KEY_RIGHT) < alpha
        children = np.concatenate((parents[left] - 1, parents[right] + 1))
    else:
        candidates = np.unique(np.concatenate((parents - 1, parents + 1)))
        children = candidates[uniforms(level + 1, candidates, _KEY_SITE) < alpha]
    return Frontier(level + 1, children)


def _stream_uniforms(stream: np.random.Generator):
    # the next draws of the stream, whatever the level and key
    return lambda level, sites, key: stream.random(sites.size)


def _field_uniforms(trial_key: int):
    # the same arrow sees the same uniform at every alpha: the couplings need that
    return lambda level, sites, key: mix_to_unit(combine_keys(trial_key, level, sites, key))


def op_step(frontier: Frontier, alpha: float, variant: str, stream: np.random.Generator) -> Frontier:
    """One synchronous update of the frontier.

    Bond: two stream uniforms per occupied parent (left arrows then right
    arrows, parents in sorted order).  Site: one stream uniform per candidate
    child (sorted order).
    """
    return _step(frontier, _check_alpha(alpha), _check_variant(variant), _stream_uniforms(stream))


def coupled_variant_step(frontier: Frontier, alpha: float, trial_key: int) -> tuple[Frontier, Frontier]:
    """Site and bond updates of the same frontier on shared arrow uniforms.

    A site child reads its left parent's right arrow, or its right parent's
    left arrow when its left parent is empty: one uniform per candidate, as
    the site law needs, and site occupation pathwise within bond occupation.
    """
    uniforms = _field_uniforms(trial_key)
    parents = frontier.occupied
    level = frontier.level
    candidates = np.unique(np.concatenate((parents - 1, parents + 1)))
    from_left = uniforms(level, candidates - 1, _KEY_RIGHT)
    from_right = uniforms(level, candidates + 1, _KEY_LEFT)
    u = np.where(np.isin(candidates - 1, parents), from_left, from_right)
    site = Frontier(level + 1, candidates[u < alpha])
    return site, _step(frontier, alpha, "bond", uniforms)


def _extinction_level(alpha: float, variant: str, n_max: int, uniforms) -> int:
    """Level at which the frontier from the origin dies out; -1 if alive after n_max steps."""
    frontier = Frontier.origin()
    for _ in range(n_max):
        frontier = _step(frontier, alpha, variant, uniforms)
        if not frontier.alive:
            return frontier.level
    return -1


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
    alpha = _check_alpha(alpha)
    variant = _check_variant(variant)
    if trials < 1 or n_max < 1:
        raise DomainError("trials and n_max must be positive")
    streams = (substream(seed, _STREAM_TRIAL, t) for t in range(trials))
    levels = [_extinction_level(alpha, variant, n_max, _stream_uniforms(s)) for s in streams]
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


def coupled_survival_matrix(
    alphas, variant: str, n_max: int, trials: int, seed: int
) -> np.ndarray:
    """Survival indicators (trials x alphas) on shared driving uniforms."""
    alphas = [float(a) for a in alphas]
    if sorted(alphas) != alphas:
        raise DomainError("alpha list must be sorted ascending")
    variant = _check_variant(variant)
    out = np.zeros((trials, len(alphas)), dtype=int)
    for t in range(trials):
        uniforms = _field_uniforms(derive_seed(seed, _STREAM_TRIAL, t))
        for k, alpha in enumerate(alphas):
            out[t, k] = 1 if _extinction_level(alpha, variant, n_max, uniforms) < 0 else 0
    return out


def coupled_survival_monotonicity(
    alphas, variant: str, n_max: int, trials: int, seed: int
) -> bool:
    """True iff survival is non-decreasing in alpha in every coupled trial."""
    matrix = coupled_survival_matrix(alphas, variant, n_max, trials, seed)
    return bool(np.all(np.diff(matrix, axis=1) >= 0))

"""Seeded sampling of Poisson stick configurations.

A configuration is a Poisson number of stick centers dropped uniformly in
the padded box around an observation window, with orientations drawn
independently from an orientation law.  All randomness flows through PCG64
substreams derived from an explicit master seed (see :mod:`stickperc.rng`),
so identical inputs reproduce identical configurations byte for byte,
independent of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, DomainError
from .rng import substream

_STREAM_CONFIG = 0x5EED
# a replicate peaks near 3 KB per stick over sampling and clustering (d = 3
# near threshold), so this guard keeps one near 2 GB
_MAX_EXPECTED_COUNT = 5e5
# a branching generation draws one int64 index and one int64 offspring count
# per individual, so a population of this many holds about 1.6 GB, near the
# stick guard's budget
_MAX_POPULATION = 1e8


@dataclass(frozen=True)
class Uniform:
    """Isotropic orientations: the normalized Hausdorff measure on the sphere."""

    tag: str = field(default="uniform", init=False)

    def sample_directions(self, rng: np.random.Generator, d: int, n: int) -> np.ndarray:
        z = rng.standard_normal((n, d))
        norms = np.linalg.norm(z, axis=1)
        while np.any(norms < 1e-12):  # pragma: no cover - probability ~0
            bad = norms < 1e-12
            z[bad] = rng.standard_normal((int(bad.sum()), d))
            norms = np.linalg.norm(z, axis=1)
        return z / norms[:, None]


@dataclass(frozen=True)
class Rigid:
    """All sticks share one fixed axis (point mass orientation law)."""

    axis: np.ndarray
    tag: str = field(default="rigid", init=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        n = float(np.linalg.norm(axis))
        if n == 0.0 or not np.all(np.isfinite(axis)):
            raise DomainError("rigid axis must be a finite nonzero vector")
        object.__setattr__(self, "axis", axis / n)

    def sample_directions(self, rng: np.random.Generator, d: int, n: int) -> np.ndarray:
        if self.axis.shape[0] != d:
            raise DomainError("rigid axis dimension does not match d")
        return np.broadcast_to(self.axis, (n, d)).copy()


OrientationLaw = Uniform | Rigid


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box given by per-axis low/high corners."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.shape != high.shape or low.ndim != 1:
            raise DomainError("box corners must be 1-d arrays of equal shape")
        if not np.all(low < high):
            raise DomainError("box must satisfy low < high on every axis")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def volume(self) -> float:
        return float(np.prod(self.high - self.low))

    @staticmethod
    def cube(d: int, side: float) -> "BoxRegion":
        return BoxRegion(np.zeros(d), np.full(d, float(side)))

    def grown(self, pad: float) -> "BoxRegion":
        return BoxRegion(self.low - pad, self.high + pad)


def check_intensity(intensity: float) -> float:
    """``intensity`` itself; DomainError if it is negative or not finite."""
    if not 0.0 <= intensity < math.inf:
        raise DomainError("intensity must be finite and nonnegative")
    return intensity


def check_density_floor(delta: float) -> float:
    """``delta`` itself; DomainError unless 0 < delta <= 1.  A density with
    respect to the normalized uniform law integrates to 1, so its floor
    cannot exceed 1."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"density floor delta must satisfy 0 < delta <= 1, got delta = {delta}")
    return delta


def check_expected_count(mean: float) -> float:
    """``mean`` itself; DomainError unless it is finite and nonnegative, and
    CapacityExceeded above the guard on the expected sticks of one sample."""
    if not (mean >= 0.0) or not np.isfinite(mean):
        raise DomainError("poisson mean must be finite and nonnegative")
    if mean > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"expected count {mean:.3g} exceeds guard of {_MAX_EXPECTED_COUNT:.3g}")
    return mean


def poisson_count(mean: float, stream: np.random.Generator) -> int:
    """One exact Poisson(mean) draw from the given stream.

    Delegates to the generator's Poisson sampler (exact inversion for small
    means, transformed rejection for large ones); deterministic given the
    stream state.
    """
    return int(stream.poisson(check_expected_count(mean)))


def poisson_sticks(
    d: int, intensity: float, law: OrientationLaw, box: BoxRegion, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Centers and directions of a Poisson(intensity * volume) number of
    sticks, centered uniformly in ``box`` and oriented by ``law``: the
    count, then the centers, then the directions from ``rng``."""
    n = poisson_count(intensity * box.volume, rng)
    return rng.uniform(box.low, box.high, size=(n, d)), law.sample_directions(rng, d, n)


@dataclass(frozen=True)
class Configuration:
    """Immutable sampled stick configuration: its sticks and the observation
    window whose crossings it is tested for."""

    length: float
    observation_window: BoxRegion
    centers: np.ndarray
    dirs: np.ndarray

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def half(self) -> float:
        return 0.5 * self.length


def sampling_box(window: BoxRegion, length: float) -> BoxRegion:
    """The box a window configuration's centres are drawn in: sticks
    centred outside ``window`` can still reach it, so the window grown by
    half a stick plus the radius."""
    return window.grown(0.5 * length + 1.0)


def sample_window_configuration(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    side: float,
    seed: int,
) -> Configuration:
    """Sample a Poisson stick configuration for the observation window
    [0, side]^d, its centers drawn in the window's ``sampling_box``."""
    if intensity <= 0.0:
        raise DomainError("intensity must be positive")
    window = BoxRegion.cube(d, side)
    centers, dirs = poisson_sticks(d, intensity, law, sampling_box(window, length), substream(seed, _STREAM_CONFIG))
    return Configuration(float(length), window, centers, dirs)

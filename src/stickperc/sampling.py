"""Seeded sampling of Poisson stick configurations.

A configuration is a Poisson number of stick centers dropped uniformly in
the padded box around an observation window, with orientations drawn
independently from an orientation law.  All randomness flows through PCG64
substreams derived from an explicit master seed (see :mod:`stickperc.rng`),
so identical inputs reproduce identical configurations byte for byte,
independent of worker count.

``place_sticks`` is the one stick draw: given a count per stream, each
stream draws only its centres and its law's raw directions, while the
scaling of the centres, the normalising of the directions and the per-axis
layout run once over the batch.  ``poisson_sticks`` draws each stream's
Poisson count and places them so, for window configurations, replicate
batches and component explorations; the offspring and two-ball Monte
Carlo draw their own counts and place their sticks through
``place_sticks``.  A single configuration is a batch of one.
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


def _row_norms(z: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of the (n, d) ``z``, its squares
    summed in axis order one column at a time: numpy's order for d <= 7, so
    ``np.linalg.norm(z, axis=1)`` to the last bit there (beyond, the last
    bit may differ), without its reduction call per row."""
    squares = z * z
    total = squares[:, 0].copy()
    for k in range(1, z.shape[1]):
        total += squares[:, k]
    return np.sqrt(total, out=total)


class _DirectionLaw:
    """An orientation law's draw in two steps: ``draw`` takes a stream's
    raw directions, ``unit`` turns the raw draws of one or more streams
    into unit directions, so a batch of streams is normalised at once."""

    def sample_directions(self, rng: np.random.Generator, d: int, n: int) -> np.ndarray:
        """``n`` directions from ``rng``, the rows of an (n, d) array."""
        z = np.empty((n, d))
        self.draw(rng, z)
        self.unit(z, [rng], [n], out=z)
        return z


@dataclass(frozen=True)
class Uniform(_DirectionLaw):
    """Isotropic orientations: the normalized Hausdorff measure on the sphere."""

    tag: str = field(default="uniform", init=False)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Standard normal rows into the (n, d) ``out``."""
        rng.standard_normal(out=out)

    def unit(self, raw: np.ndarray, streams, counts, out: np.ndarray) -> None:
        """Write into ``out`` the raw rows ``raw`` scaled to unit length.
        The rows came from ``streams`` in turn, ``counts[r]`` of them from
        ``streams[r]``; a row too short to scale is drawn again from its
        own stream, after that stream's other draws."""
        norms = _row_norms(raw)
        bad = np.flatnonzero(norms < 1e-12)
        while len(bad):
            owner = np.searchsorted(np.cumsum(counts), bad, side="right")
            for r in np.unique(owner).tolist():
                rows = bad[owner == r]
                raw[rows] = streams[r].standard_normal((len(rows), raw.shape[1]))
            norms = _row_norms(raw)
            bad = np.flatnonzero(norms < 1e-12)
        # axis by axis, so that rows laid out as (d, n) are written whole
        np.divide(raw.T, norms, out=out.T)


@dataclass(frozen=True)
class Rigid(_DirectionLaw):
    """All sticks share one fixed axis (point mass orientation law)."""

    axis: np.ndarray
    tag: str = field(default="rigid", init=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        n = float(np.linalg.norm(axis))
        if n == 0.0 or not np.all(np.isfinite(axis)):
            raise DomainError("rigid axis must be a finite nonzero vector")
        object.__setattr__(self, "axis", axis / n)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """A point mass draws nothing."""

    def unit(self, raw: np.ndarray, streams, counts, out: np.ndarray) -> None:
        """Write the axis into every row of ``out``."""
        check_law_dimension(self, raw.shape[1])
        out[...] = self.axis


OrientationLaw = Uniform | Rigid


def check_dim(d: int) -> int:
    """``d`` as an int; DomainError unless it is an integer >= 2."""
    if int(d) != d or d < 2:
        raise DomainError("dimension must be an integer >= 2")
    return int(d)


def check_length(length: float) -> float:
    """``length`` itself; DomainError unless it is positive and finite."""
    if not math.isfinite(length):
        raise DomainError(f"stick length must be finite, got L = {length}")
    if not length > 0.0:
        raise DomainError("stick length must be positive")
    return length


def check_law_dimension(law, d: int) -> None:
    """DomainError if ``law`` is a rigid law whose axis does not live in
    dimension ``d``; any other law, or a law's tag, passes."""
    axis = getattr(law, "axis", None)
    if axis is not None and axis.shape != (d,):
        raise DomainError("rigid axis dimension does not match d")


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
        """The box's volume, inf past the float range, which every caller
        refuses; so the overflow raises no numpy warning."""
        with np.errstate(over="ignore"):
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


def place_sticks(
    d: int, law: OrientationLaw, box: BoxRegion, streams: list[np.random.Generator], counts
) -> tuple[np.ndarray, np.ndarray]:
    """``counts[r]`` sticks from each ``streams[r]`` in turn, centred
    uniformly in ``box`` and oriented by ``law``: their centres and
    directions, (n, d) views of C-contiguous (d, n) per-axis rows, so their
    ``.T`` is each field's rows, row k axis k of every stick.

    Each stream draws ``random((count, d))`` for its centres, then
    ``law``'s raw directions: the draws of one stream alone, so
    ``low + (high - low) * u`` gives ``uniform(low, high)``'s centres bit
    for bit.  Scaling the centres and normalising the directions run once
    over all the streams."""
    n = sum(counts)
    u, raw = np.empty((n, d)), np.empty((n, d))
    end = 0
    for rng, k in zip(streams, counts):
        rng.random(out=u[end : end + k])
        law.draw(rng, raw[end : end + k])
        end += k
    centers, dirs = np.empty((d, n)), np.empty((d, n))
    np.multiply(u.T, (box.high - box.low)[:, None], out=centers)
    centers += box.low[:, None]
    law.unit(raw, streams, counts, out=dirs.T)
    return centers.T, dirs.T


def poisson_sticks(
    d: int, intensity: float, law: OrientationLaw, box: BoxRegion, streams: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Poisson(intensity * volume) sticks from each of ``streams``, placed
    in ``box`` by ``place_sticks``: their centres and directions, and the
    count of each stream.  The streams are independent, so every count is
    drawn first."""
    mean = intensity * box.volume
    counts = [poisson_count(mean, rng) for rng in streams]
    centers, dirs = place_sticks(d, law, box, streams, counts)
    return centers, dirs, counts


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


def check_window_intensity(intensity: float, box: BoxRegion) -> float:
    """The expected stick count of a window configuration at ``intensity``
    in its sampling box ``box``: DomainError unless ``intensity`` is
    positive and the count finite, CapacityExceeded above the guard."""
    if not intensity > 0.0:
        raise DomainError("intensity must be positive")
    return check_expected_count(intensity * box.volume)


def sample_window_configuration(
    d: int,
    length: float,
    intensity: float,
    law: OrientationLaw,
    side: float,
    seed: int,
) -> Configuration:
    """Sample a Poisson stick configuration for the observation window
    [0, side]^d, its centers drawn in the window's ``sampling_box``: a
    ``poisson_sticks`` batch of one stream, drawn only once ``d``, ``length``
    and ``intensity`` pass their checks."""
    d = check_dim(d)
    window = BoxRegion.cube(d, side)
    box = sampling_box(window, check_length(length))
    check_window_intensity(intensity, box)
    centers, dirs, _ = poisson_sticks(d, intensity, law, box, [substream(seed, _STREAM_CONFIG)])
    return Configuration(float(length), window, centers, dirs)

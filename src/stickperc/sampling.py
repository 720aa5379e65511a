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
batches and component explorations.  ``stream_sticks`` is the same draw
for one stream, bit for bit, handed out in row blocks: the offspring and
two-ball Monte Carlo draw their own counts and stream their sticks, so
they hold one block at a time.  A single configuration is a batch of one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from numbers import Real

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
# sticks per block of ``stream_sticks``: geometry's ``_BLOCK`` rows, which
# the Monte Carlo kernels test at once (geometry imports this module); the
# fastest of 4,096-65,536 on verify's streamed calls
_STREAM_BLOCK = 8_192


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
        try:
            axis = np.asarray(self.axis, dtype=float)
            n = float(np.linalg.norm(axis))
        except (TypeError, ValueError):  # an axis that is not numeric
            n = 0.0
        if n == 0.0 or not np.all(np.isfinite(axis)):
            raise DomainError("rigid axis must be a finite nonzero vector")
        object.__setattr__(self, "axis", axis / n)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """A point mass draws nothing."""

    def unit(self, raw: np.ndarray, streams, counts, out: np.ndarray) -> None:
        """Write the axis into every row of ``out``."""
        check_law(self, raw.shape[1])
        out[...] = self.axis


OrientationLaw = Uniform | Rigid


def check_integer(value, noun: str, least: int) -> int:
    """``value`` as an int; DomainError, naming it ``noun``, unless it is an
    integer >= ``least``.  An integral float counts (4.0 is 4); a fraction,
    NaN, an infinity or a value that is not a number does not."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{noun} must be an integer >= {least}")


def check_seed(seed: int) -> int:
    """``seed`` as an int; DomainError unless it is an integer in [0, 2^64),
    the master seeds that ``derive_seed`` tells apart."""
    seed = check_integer(seed, "seed", 0)
    if seed >= 2**64:
        raise DomainError(f"seed must be below 2^64, got {seed}")
    return seed


def check_dim(d: int) -> int:
    """``d`` as an int; DomainError unless it is an integer >= 2."""
    return check_integer(d, "dimension", 2)


# float and int ahead of the ABC, whose check alone costs about 1 us a call
REAL_TYPES = (float, int, Real)
_INTERVALS = {i: tuple(float(end) for end in i[1:-1].split(", ")) for i in ("(0, inf)", "[0, inf)", "(0, 1]", "[0, 1]")}


def check_real(value, noun: str, interval: str) -> float:
    """``float(value)``; DomainError, naming it ``noun``, unless it is a real
    number (a numpy scalar counts; NaN does not) in ``interval``, one of
    ``"(0, inf)"``, ``"[0, inf)"``, ``"(0, 1]"`` and ``"[0, 1]"``: the
    literal both sets the bounds and is quoted in the message."""
    low, high = _INTERVALS[interval]
    try:
        x = float(value) if isinstance(value, REAL_TYPES) else math.nan
    except OverflowError:
        x = math.nan
    if (low < x or interval[0] == "[" and x == low) and (x < high or interval[-1] == "]" and x == high):
        return x
    raise DomainError(f"{noun} must be a number in {interval}, got {value!r}")


def check_choice(value, noun: str, choices: tuple[str, ...]) -> str:
    """``value`` itself; DomainError, naming it ``noun``, unless it is one of
    the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise DomainError(f"{noun} must be one of {choices}, got {value!r}")
    return value


def check_length(length: float) -> float:
    """``length`` as a float; DomainError unless it is positive and finite."""
    return check_real(length, "stick length", "(0, inf)")


def check_law(law, d: int) -> None:
    """DomainError unless ``law`` is an orientation law, a ``Uniform`` or a
    ``Rigid`` whose axis lives in dimension ``d``."""
    if not isinstance(law, (Uniform, Rigid)):
        raise DomainError(f"law must be a Uniform or Rigid orientation law, got {law!r}")
    if isinstance(law, Rigid) and law.axis.shape != (d,):
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
        """The window [0, side]^d; DomainError unless side is a positive finite number."""
        d = check_dim(d)
        return BoxRegion(np.zeros(d), np.full(d, check_real(side, "window side", "(0, inf)")))

    def grown(self, pad: float) -> "BoxRegion":
        return BoxRegion(self.low - pad, self.high + pad)


def check_intensity(intensity: float) -> float:
    """``intensity`` as a float; DomainError unless it is finite and nonnegative."""
    return check_real(intensity, "intensity", "[0, inf)")


def check_density_floor(delta: float) -> float:
    """``delta`` as a float; DomainError unless 0 < delta <= 1.  A density
    with respect to the normalized uniform law integrates to 1, so its floor
    cannot exceed 1."""
    return check_real(delta, "density floor delta", "(0, 1]")


def check_expected_count(mean: float) -> float:
    """``mean`` as a float; DomainError unless it is finite and nonnegative,
    and CapacityExceeded above the guard on the expected sticks of one sample."""
    mean = check_real(mean, "poisson mean", "[0, inf)")
    if mean > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"expected count {mean:.3g} exceeds guard of {_MAX_EXPECTED_COUNT:.3g}")
    return mean


def check_runs(count: int, noun: str) -> None:
    """CapacityExceeded if ``count`` is above the stick guard: the ``noun``
    (replicates, trials or runs) of one estimate, each of which it keeps."""
    if count > _MAX_EXPECTED_COUNT:
        raise CapacityExceeded(f"{count} {noun} exceed guard of {_MAX_EXPECTED_COUNT:.3g}")


def _lay_out(law: OrientationLaw, box: BoxRegion, u: np.ndarray, raw: np.ndarray, streams, counts):
    """The centres and directions of the (n, d) uniforms ``u`` and raw
    directions ``raw``, drawn from ``streams`` by ``counts``: ``u`` scaled
    into ``box`` and ``raw`` made unit by ``law``, as (n, d) views of
    C-contiguous (d, n) per-axis rows."""
    n, d = u.shape
    centers, dirs = np.empty((d, n)), np.empty((d, n))
    np.multiply(u.T, (box.high - box.low)[:, None], out=centers)
    centers += box.low[:, None]
    law.unit(raw, streams, counts, out=dirs.T)
    return centers.T, dirs.T


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
    return _lay_out(law, box, u, raw, streams, counts)


class _RedrawLater(Exception):
    """Raised by the stand-in stream of a streamed block when ``law.unit``
    asks it for a redraw: the block holds a row too short to scale, whose
    redraw waits until every block's directions are drawn."""

    @staticmethod
    def standard_normal(size):
        raise _RedrawLater


def stream_sticks(d: int, law: OrientationLaw, box: BoxRegion, rng: np.random.Generator, n: int):
    """The sticks of ``place_sticks(d, law, box, [rng], [n])``, bit for bit,
    as ``(start, centres, directions)`` for consecutive blocks of at most
    ``_STREAM_BLOCK`` rows, so a caller holds one block, not ``n`` sticks.
    Once the blocks are exhausted, ``rng`` stands where ``place_sticks``
    leaves it.

    ``place_sticks`` draws ``n * d`` centre uniforms, one 64-bit word each
    on PCG64, then the raw directions.  So the centres come from ``rng``
    and the directions from a copy of it advanced by ``n * d`` words.  A
    block holding a row too short to scale comes after the others, once the
    copy stands where ``place_sticks`` draws its redraws.  Of two or more
    such blocks, each redraws in turn, which matches ``place_sticks``
    unless a redrawn row is too short again."""
    directions = copy.deepcopy(rng)
    directions.bit_generator.advance(n * d)
    later = []
    for start in range(0, n, _STREAM_BLOCK):
        k = min(_STREAM_BLOCK, n - start)
        u, raw = np.empty((k, d)), np.empty((k, d))
        rng.random(out=u)
        law.draw(directions, raw)
        try:
            centers, dirs = _lay_out(law, box, u, raw, [_RedrawLater], [k])
        except _RedrawLater:
            later.append((start, u, raw))
            continue
        yield start, centers, dirs
    for start, u, raw in later:
        yield (start, *_lay_out(law, box, u, raw, [directions], [len(u)]))
    # the copy's position, and rng's own buffered 32-bit half word
    state = rng.bit_generator.state
    state["state"] = directions.bit_generator.state["state"]
    rng.bit_generator.state = state


def poisson_sticks(
    d: int, intensity: float, law: OrientationLaw, box: BoxRegion, streams: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Poisson(intensity * volume) sticks from each of ``streams``, placed
    in ``box`` by ``place_sticks``: their centres and directions, and the
    count of each stream.  The mean is checked once; the streams are
    independent, so every count is drawn first, by the generator's exact
    Poisson sampler."""
    mean = check_expected_count(intensity * box.volume)
    counts = [int(rng.poisson(mean)) for rng in streams]
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
    ``poisson_sticks`` batch of one stream, drawn only once ``d``, ``side``,
    ``length``, ``intensity``, the law, the expected stick count
    and ``seed`` pass their checks.  At intensity 0 it is empty."""
    d = check_dim(d)
    window = BoxRegion.cube(d, side)
    length, intensity = check_length(length), check_intensity(intensity)
    box = sampling_box(window, length)
    check_expected_count(intensity * box.volume)
    check_law(law, d)
    seed = check_seed(seed)
    centers, dirs, _ = poisson_sticks(d, intensity, law, box, [substream(seed, _STREAM_CONFIG)])
    return Configuration(length, window, centers, dirs)

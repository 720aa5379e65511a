"""Deterministic seed derivation.

A single master seed is expanded into independent named substreams with the
splitmix64 mixing function.  Substream identity depends only on the integer
path passed to :func:`derive_seed`, never on scheduling, so parallel and
serial runs consume identical randomness.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 output step for the 64-bit state ``z``."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *path: int) -> int:
    """Derive a 64-bit substream seed from ``master`` and an integer path.

    Each path component is mixed in with a full splitmix64 round, so
    ``derive_seed(s, a, b)`` and ``derive_seed(s, b, a)`` differ and sibling
    substreams are statistically independent for PCG64 purposes.
    """
    state = splitmix64(master & _MASK64)
    for part in path:
        state = splitmix64(state ^ splitmix64(int(part) & _MASK64))
    return state


def substream(master: int, *path: int) -> np.random.Generator:
    """A PCG64 generator seeded from ``derive_seed(master, *path)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))


def _finalize(z):
    """The splitmix64 output step on uint64 values; callers silence the
    overflow warnings of numpy scalars, since the arithmetic wraps mod 2^64."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def mix_to_unit(keys: np.ndarray) -> np.ndarray:
    """Map an array of uint64 keys to floats in [0, 1) via splitmix64.

    Vectorized counter-based generator: the uniform attached to a key is a
    pure function of the key, which is what the shared-driving couplings
    need (the same lattice arrow sees the same uniform at every parameter).
    """
    with np.errstate(over="ignore"):
        z = _finalize(keys.astype(np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def combine_keys(*parts: np.ndarray | int) -> np.ndarray:
    """Fold integer scalars/arrays into a single uint64 key array
    (order-sensitive)."""
    acc = None
    with np.errstate(over="ignore"):
        for part in parts:
            if isinstance(part, (int, np.integer)):
                z = np.uint64(splitmix64(int(part) & _MASK64))
            else:
                arr = np.asarray(part)
                if arr.dtype != np.uint64:
                    arr = arr.astype(np.int64).astype(np.uint64)
                z = _finalize(arr)
            acc = z if acc is None else (acc * np.uint64(0x100000001B3) ^ z)
    return acc

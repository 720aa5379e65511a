"""Timing of the benchmark's calls, scaled to a reference host speed.

On a virtual machine that shares its host, a core's speed drifts over
seconds and over minutes with the load of the other guests: on a 2-core
Xeon VM the same run took 16.5 s at one moment and 30.4 s at another, with
CPU time equal to wall time.  A ``Clock`` therefore times a fixed mix of
interpreter and numpy work of its own, which no change to the program
touches, before each timed call and once after the last, and scales each
call's time by the mean of the two calibration times around it, to the
speed at which that mix takes ``REFERENCE_CALIBRATION_S``.
The unscaled times and the calibration times stay in the run record.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# about the median of calibration_seconds() on a 2-core 2.1 GHz Xeon
REFERENCE_CALIBRATION_S = 0.035


@functools.cache
def _calibration_array() -> np.ndarray:
    return np.random.default_rng(0).random(200_000)


def calibration_seconds() -> float:
    array = _calibration_array()
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(7):
        np.sort(array)
    return time.perf_counter() - t0


class Clock:
    """Times calls by part name, with a calibration before each call.

    Call ``stop`` after the last call; ``scaled`` then gives every call's
    time at the reference speed."""

    def __init__(self):
        self.times: list[tuple[str, float]] = []
        self.calibration: list[float] = []

    def __call__(self, part: str, fn, *args, **kwargs):
        self.calibration.append(calibration_seconds())
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times.append((part, time.perf_counter() - t0))

    def add(self, part: str, fn) -> None:
        """Time a call that measures itself: ``fn`` returns its seconds."""
        self.calibration.append(calibration_seconds())
        self.times.append((part, fn()))

    def stop(self) -> None:
        self.calibration.append(calibration_seconds())

    def scaled(self) -> list[tuple[str, float]]:
        cal = self.calibration
        if len(cal) != len(self.times) + 1:
            raise RuntimeError("Clock.scaled needs one calibration per call and one after the last")
        return [
            (part, seconds * REFERENCE_CALIBRATION_S / ((cal[i] + cal[i + 1]) / 2))
            for i, (part, seconds) in enumerate(self.times)
        ]


def protocol_seconds(times: list[tuple[str, float]], calls: int) -> float:
    """Mean time of one protocol call, from the times of every timed call
    that ``calls`` protocol calls made."""
    return sum(seconds for _, seconds in times) / calls

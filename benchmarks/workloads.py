"""Workloads of the stickperc benchmark and the protocols they time.

A percolation workload is a threshold series: one ``estimate_threshold``
call per stick length ``L`` and, where there are at least three lengths, a
``scaling_fit`` over them.  The ``verify`` workload runs the seeded
self-check registry, one suite call per suite and suite seed.  Each
protocol returns its outputs (the numbers a user reads), the number of
operations attempted and failed and the counts the traced run reports,
and times each of its calls on a ``clock.Clock``.  One operation is one
estimate or one verify check; an estimate fails if it raises or is not
strictly inside its theorem bracket, a check fails if it does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stickperc import Rigid, Uniform, estimate_threshold, scaling_fit, theorem_bounds, verify
from stickperc.percolation import fit_weight
from stickperc.rng import derive_seed

from clock import Clock

_STREAM_BENCH = 0xBE7C
# run length the series counts below are sized for, on a 2-core 2.1 GHz
# Xeon: one series takes about 3.6 s (uniform-d2), 4 s (rigid-d2) and
# 4.2 s (uniform-d3), and one verify pass about 20 s.  A series' time
# depends on its seed through the bisection path (uniform-d2 at L=32 takes
# 0.7 s or 1.4 s), so a run times several short series, with a quarter to
# a fifth of the acceptance replicates per probe, and reports their mean.
SIZED_FOR_SECONDS = 20.0


@dataclass(frozen=True)
class SeriesSpec:
    d: int
    law: str
    lengths: tuple[int, ...]
    side_factor: float
    replicates: int
    workers: int
    series: int
    # replay intensities are fixed multiples of these lambda_c(L) values,
    # the acceptance seed's estimates at 100 (d=2) and 40 (d=3) replicates
    reference: tuple[float, ...]
    replay_replicates: int
    acceptance: str
    why: str

    def law_object(self):
        if self.law == "rigid":
            axis = np.zeros(self.d)
            axis[-1] = 1.0
            return Rigid(axis)
        return Uniform()


@dataclass(frozen=True)
class VerifySpec:
    seeds: tuple[int, ...]
    # passes over ``seeds`` per run; every pass repeats the same work
    series: int
    acceptance: str
    why: str


WORKLOADS = {
    "uniform-d2": SeriesSpec(
        d=2, law="uniform", lengths=(8, 16, 32, 64), side_factor=10.0, replicates=25, workers=1,
        series=6, reference=(0.0328, 0.0122, 0.00395, 0.00114), replay_replicates=20,
        acceptance="criterion 1: L in {8,16,32,64}, side 10L, 200 replicates",
        why="small configurations: sampling, per-cell pair loop and union-find dominate",
    ),
    "rigid-d2": SeriesSpec(
        d=2, law="rigid", lengths=(8, 16), side_factor=10.0, replicates=20, workers=1,
        series=6, reference=(0.0782, 0.0435), replay_replicates=20,
        acceptance="criterion 2: L in {8,16,32,64}, side 10L, 200 replicates",
        why="aligned sticks: fine cells, 3.6x more sticks, union-find heaviest, parallel narrow phase",
    ),
    "uniform-d3": SeriesSpec(
        d=3, law="uniform", lengths=(8, 16), side_factor=8.0, replicates=8, workers=2,
        series=6, reference=(0.00507, 0.00158), replay_replicates=8,
        acceptance="criterion 3: L in {8,16,32}, side 8L, 100 replicates",
        why="3-d: broad and narrow phase dominate at 5-9% precision; a process pool per probe",
    ),
    "verify": VerifySpec(
        seeds=(1, 2, 3, 4, 5, 6), series=1,
        acceptance="stickperc verify --suite all at one seed",
        why="closed-form self-checks only; uses none of the percolation pipeline",
    ),
}


def series_count(spec, seconds: float) -> int:
    """Series per run, scaled from ``spec.series`` at SIZED_FOR_SECONDS.
    Fixed by the arguments, not the clock, so outputs and counts repeat."""
    return max(1, round(spec.series * seconds / SIZED_FOR_SECONDS))


def series_seeds(seed: int, count: int) -> list[int]:
    """The first series runs at ``seed`` itself, so the default seed's
    first series is the acceptance seed's; the rest use substreams."""
    return [seed] + [derive_seed(seed, _STREAM_BENCH, k) for k in range(1, count)]


def excluded_area_uniform_d2(length: float) -> float:
    """Mean excluded area of two isotropic radius-1 sticks in the plane."""
    return (2.0 / math.pi) * length * length + 8.0 * length + 4.0 * math.pi


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    probes: int = 0
    replicates: int = 0
    zero_width_ci: int = 0

    def add(self, other: "Tally") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


def run_series(spec: SeriesSpec, seed: int, clock: Clock) -> tuple[dict, Tally]:
    """One threshold series at ``seed``: its outputs and its tally.  Each
    call is timed on ``clock``, named by the part of the series it is."""
    law = spec.law_object()
    tally = Tally()
    estimates = []
    fit_points = []
    for L in spec.lengths:
        tally.attempted += 1
        row = {"L": L}
        try:
            est = clock(
                f"L={L}", estimate_threshold, spec.d, float(L), law, spec.side_factor * L,
                replicates=spec.replicates, seed=seed, workers=spec.workers,
            )
        except Exception as exc:  # a raising estimate is a failed operation, not a crashed run
            tally.failed += 1
            row["error"] = f"{type(exc).__name__}: {exc}"
            estimates.append(row)
            continue
        bounds = theorem_bounds(spec.d, float(L), spec.law, strict=False)
        inside = bounds.lower < est.lambda_hat < bounds.upper
        ordered = est.ci_low <= est.lambda_hat <= est.ci_high
        tally.failed += not (inside and ordered)
        tally.probes += len(est.probes)
        tally.replicates += sum(p.replicates for p in est.probes)
        tally.zero_width_ci += est.ci_low == est.ci_high
        row.update(lambda_hat=est.lambda_hat, ci_low=est.ci_low, ci_high=est.ci_high, inside_bounds=inside,
                   probes=len(est.probes))
        if spec.d == 2 and spec.law == "uniform":
            row["lambda_aex"] = est.lambda_hat * excluded_area_uniform_d2(L)
        estimates.append(row)
        fit_points.append((L, est.lambda_hat, fit_weight(est)))
    out = {"seed": seed, "estimates": estimates}
    if len(fit_points) >= 3:
        out["slope"] = clock("scaling_fit", scaling_fit, fit_points).slope
    return out, tally


def run_verify(spec: VerifySpec, clock: Clock) -> tuple[dict, Tally]:
    """One pass of the verify registry at the fixed suite seeds, one
    ``verify.SUITES`` call per suite and seed, each timed on ``clock`` under
    its suite's name.  The checks are those ``verify.run_suite("all",
    seed)`` returns.

    The suites are seeded statistical checks at three standard errors, so
    a sweep over workload seeds would turn their designed false-alarm rate
    into failed runs; the workload seed does not enter."""
    tally = Tally()
    checks = []
    for s in spec.seeds:
        for name, suite in verify.SUITES.items():
            results = clock(name, suite, s)
            checks.extend([s, c.name, c.passed, c.detail] for c in results)
    tally.attempted = len(checks)
    tally.failed = sum(not c[2] for c in checks)
    return {"checks": checks}, tally


def run_protocol(spec, seed: int, clock: Clock) -> tuple[dict, Tally]:
    if isinstance(spec, VerifySpec):
        return run_verify(spec, clock)
    return run_series(spec, seed, clock)

"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import clock
import run
import workloads

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "uniform-d2": workloads.SeriesSpec(
        d=2, law="uniform", lengths=(8, 12, 16), side_factor=8.0, replicates=8, workers=1,
        series=1, reference=(0.0328, 0.02, 0.0122), replay_replicates=2,
        acceptance="tiny", why="tiny",
    ),
    "verify": workloads.VerifySpec(seeds=(1,), series=1, acceptance="tiny", why="tiny"),
}


@pytest.fixture(scope="module")
def measured():
    cache = {}

    def get(name, seed, trace):
        key = (name, seed, trace)
        if key not in cache:
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(workloads.WORKLOADS, name, TINY[name])
                cache[key] = run.measure(name, seed, seconds=1.0, trace=trace)
        return cache[key]

    return get


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(measured, name, trace):
    result, _ = measured(name, run.ACCEPTANCE_SEED, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_counts_and_outputs_repeat_on_the_same_seed(measured):
    first, first_record = measured("uniform-d2", 7, True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.WORKLOADS, "uniform-d2", TINY["uniform-d2"])
        second, second_record = run.measure("uniform-d2", 7, seconds=1.0, trace=True)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts["sampling.sticks"] > 0
    assert first_record["digest"] == second_record["digest"]


def test_another_seed_changes_the_outputs(measured):
    _, a = measured("uniform-d2", 7, True)
    _, b = measured("uniform-d2", 8, True)
    assert a["digest"] != b["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for source in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(source, bench / source.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_clock_scales_each_call_by_the_calibrations_around_it():
    ref = clock.REFERENCE_CALIBRATION_S
    c = clock.Clock()
    c.calibration = [ref, 3 * ref, 0.5 * ref]
    c.times = [("a", 2.0), ("b", 3.0)]
    # the host ran at half the reference speed around a, at 4/7 of it around b
    assert [t for _, t in c.scaled()] == pytest.approx([1.0, 3.0 * 4 / 7])


def test_protocol_seconds_is_the_mean_time_of_one_protocol_call():
    times = [("L=8", 1.0), ("L=16", 2.0), ("L=8", 3.0), ("L=16", 6.0)]
    assert clock.protocol_seconds(times, calls=2) == pytest.approx(6.0)

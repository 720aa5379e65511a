"""Benchmark of the stickperc reproduction protocols.

    python3 benchmarks/run.py --workload uniform-d2 --seed 20260810 --seconds 30 --trace 0

Workloads: ``uniform-d2``, ``rigid-d2``, ``uniform-d3`` (threshold series)
and ``verify`` (the self-check registry); ``all`` runs each in a fresh
process.  Run from the root of a checkout; the program is imported from
its ``src`` directory.

With ``--trace 0`` a run times the workload's protocol with tracing off,
at several series seeds (``verify``: its suite seeds), and reports the
end-to-end metrics; ``wall_s`` is the mean time of one protocol call,
with every call into the program scaled to a reference host speed
(``clock.py``).  With
``--trace 1`` it runs the first series of the same protocol for its
counts, replays fixed replicates layer by layer with spans (``verify``
times its suites one at a time and checks them against ``run_suite``),
and reports the per-layer metrics.  A replay that disagrees with the
untraced program makes the run incorrect.  Stdout ends with two JSON lines: the run record
(machine, outputs and their digest, metrics) and the result object.
``--out PATH`` also writes the record, with the spans, to a file.  The exit
code is 0 when every output is correct, 1 when one is not and 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "stickperc" / "__init__.py").is_file():
    print(f"error: no stickperc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
from replay import LAYERS, replay  # noqa: E402
from stickperc import verify  # noqa: E402
from clock import Clock, protocol_seconds  # noqa: E402
from workloads import WORKLOADS, Tally, VerifySpec, run_protocol, series_count, series_seeds  # noqa: E402

SETUP_SAMPLES = 7
ACCEPTANCE_SEED = 20260810


def machine(load_start) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def digest(outputs) -> str:
    # json writes floats with repr, which round-trips every bit
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def setup_probe(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter until it has imported
    stickperc and numpy and built the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def clock_record(clock: Clock) -> dict:
    return {"unscaled_s": clock.times, "calibration_s": clock.calibration, "scaled_s": clock.scaled()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def build_inputs(name: str, seed: int, seconds: float):
    spec = WORKLOADS[name]
    return spec, series_seeds(seed, series_count(spec, seconds))


def run_protocols(spec, seeds, clock: Clock):
    outputs, walls, tally = [], [], Tally()
    for s in seeds:
        t0 = time.perf_counter()
        out, part = run_protocol(spec, s, clock)
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        tally.add(part)
        print(f"[bench] series seed={s} {walls[-1]:.3f}s", file=sys.stderr, flush=True)
    # verify repeats the same suite seeds in every pass, so its passes must agree
    consistent = not isinstance(spec, VerifySpec) or all(o == outputs[0] for o in outputs)
    clock.stop()
    return outputs, walls, tally, consistent


def traced_metrics(spec, seed: int, tally, times, outputs) -> tuple[dict, dict, bool]:
    """Per-layer metrics of one workload, plus the spans and whether the
    traced work agreed with the untraced: the replay with ``crossing_event``,
    the suites run one by one with ``run_suite``.  ``times`` and ``outputs``
    are the timed calls and the outputs of one protocol call."""
    m = {
        "failed_ratio": metric(tally.failed / tally.attempted, "ratio"),
        "percolation.estimate.probes": metric(tally.probes, "count"),
        "percolation.estimate.replicates": metric(tally.replicates, "count"),
        "percolation.estimate.zero_width_ci": metric(tally.zero_width_ci, "count"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    counts = dict(sticks=0, candidates=0, edges=0, clusters=0, crossed=0)
    replicate_s: list[float] = []
    suite_self = {"geometry": 0.0, "measures": 0.0, "branching": 0.0, "oriented": 0.0}
    checks = failed_checks = mismatches = 0
    overhead = 0.0
    spans = []
    if isinstance(spec, VerifySpec):
        for name, seconds in times:
            suite_self[name] += seconds
        checks, failed_checks = tally.attempted, tally.failed
        t0 = time.perf_counter()
        untraced = [[s, c.name, c.passed, c.detail] for s in spec.seeds for c in verify.run_suite("all", s)]
        untraced_s = time.perf_counter() - t0
        mismatches = int(untraced != outputs[0]["checks"])
        overhead = sum(suite_self.values()) / untraced_s - 1.0
    else:
        rep = replay(spec, seed)
        tracer = rep["tracer"]
        spans = tracer.spans
        own = tracer.self_times()
        for layer in LAYERS:
            layer_self[layer] = own.get(layer, 0.0)
        replicate_s = tracer.durations("replicate")
        counts, mismatches = rep["counts"], rep["mismatches"]
        traced_pipeline = sum(replicate_s) - sum(tracer.durations("sampling"))
        overhead = traced_pipeline / rep["untraced_s"] - 1.0
    total = sum(replicate_s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(layer_self[layer], "s")
        m[f"{layer}.share"] = metric(layer_self[layer] / total if total else 0.0, "ratio")
    m["sampling.sticks"] = metric(counts["sticks"], "count")
    m["percolation.pairs.candidates"] = metric(counts["candidates"], "count")
    m["geometry.narrow.edges"] = metric(counts["edges"], "count")
    precision = counts["edges"] / counts["candidates"] if counts["candidates"] else 0.0
    m["geometry.narrow.precision"] = metric(precision, "ratio")
    m["percolation.union.clusters"] = metric(counts["clusters"], "count")
    m["percolation.crossing.crossed"] = metric(counts["crossed"], "count")
    ms = np.array(replicate_s) * 1e3
    for q in (50, 99):
        m[f"percolation.replicate.p{q}_ms"] = metric(float(np.percentile(ms, q)) if len(ms) else 0.0, "ms")
    m["percolation.replicate.count"] = metric(len(ms), "count")
    for name, seconds in suite_self.items():
        m[f"verify.{name}.self_s"] = metric(seconds, "s")
    m["verify.checks"] = metric(checks, "count")
    m["verify.failed"] = metric(failed_checks, "count")
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    m["trace.replay_mismatches"] = metric(mismatches, "count")
    return m, {"spans": spans}, mismatches == 0 and failed_checks == 0


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result object, run record)."""
    load_start = list(os.getloadavg())
    spec, seeds = build_inputs(name, seed, seconds)
    if trace:
        # the traced run needs the counts of one series, not a steady time
        seeds = seeds[:1]
    clock = Clock()
    outputs, walls, tally, consistent = run_protocols(spec, seeds, clock)
    correct = consistent and tally.failed == 0
    extra = {"calls": clock_record(clock)}
    if trace:
        metrics, traced, replay_ok = traced_metrics(spec, seed, tally, clock.times, outputs)
        extra.update(traced)
        correct = correct and replay_ok
    else:
        # peak RSS is read before the set-up probes add children of their own
        peak = peak_rss_mb()
        setup = Clock()
        for _ in range(SETUP_SAMPLES):
            setup.add("setup", lambda: setup_probe(name, seed))
        setup.stop()
        extra["setup"] = clock_record(setup)
        metrics = {
            "wall_s": metric(protocol_seconds(clock.scaled(), len(seeds)), "s"),
            "setup_s": metric(statistics.median(t for _, t in setup.scaled()), "s"),
            "peak_rss_mb": metric(peak, "MB"),
        }
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = {
        "workload": name,
        "why": spec.why,
        "seed": seed,
        "trace": int(trace),
        "shortened": f"shortened from acceptance scale ({spec.acceptance})",
        "spec": {k: v for k, v in vars(spec).items() if k not in ("why", "acceptance")},
        "machine": machine(load_start),
        "series_walls_s": walls,
        "failed_ratio": tally.failed / tally.attempted,
        "outputs": outputs,
        "digest": digest(outputs),
        "metrics": metrics,
    }
    return result, {**record, **extra}


def run_all(args) -> int:
    """Each workload in a fresh interpreter; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print(lines[-2] if len(lines) > 1 else "", flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the run record, with spans, to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        build_inputs(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    record.pop("spans", None)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

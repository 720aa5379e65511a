"""Batch command-line front door.

Subcommands: bounds, threshold, scaling, branching, oriented, measure-mc,
verify.  Machine-parseable JSON goes to stdout, logs to stderr; CSV outputs
are written to explicit paths.  Exit codes: 0 success, 1 check/acceptance
failure, 2 invalid input.  All randomness flows from --seed, and outputs
are byte-identical across reruns and --workers settings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import branching, measures, oriented, percolation, verify
from .errors import StickPercError
from .percolation import replicate_seeds
from .sampling import Rigid, Uniform, check_dim, check_integer, check_seed

SCHEMA_VERSION = 1


def _law_object(tag: str, d: int):
    d = check_dim(d)
    if tag == "uniform":
        return Uniform()
    if tag == "rigid":
        axis = np.zeros(d)
        axis[1] = 1.0
        return Rigid(axis)
    raise StickPercError(f"law {tag!r} is not samplable from the CLI (use uniform or rigid)")


def _emit(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise StickPercError(f"output is not standard JSON: {exc}") from exc
    sys.stdout.write(text + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


@contextlib.contextmanager
def _csv_output(path: str | None, schema: str, header: list[str]):
    """Open (truncate) ``path`` before the computation, so that an unwritable
    path fails first, and write the rows the block adds to the yielded list
    when it ends.  A run that fails leaves the file empty; without a path
    the rows are dropped."""
    rows: list[list] = []
    if not path:
        yield rows
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise StickPercError(f"cannot write {path}: {exc.strerror or exc}") from exc
    with fh:
        yield rows
        try:
            fh.write(f"# schema=stickperc.{schema}.v{SCHEMA_VERSION}\n")
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        except OSError as exc:
            raise StickPercError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _probe_doc(stats: percolation.CrossingStats) -> dict:
    return {
        "intensity": stats.intensity,
        "frequency": stats.frequency,
        "successes": stats.successes,
        "replicates": stats.replicates,
        "ci_low": stats.ci_low,
        "ci_high": stats.ci_high,
    }


def _threshold_csv_rows(est: percolation.ThresholdEstimate) -> list[list]:
    rows = []
    for probe_id, probe in enumerate(est.probes):
        seeds = replicate_seeds(est.seed, probe_id, probe.replicates)
        for r, (crossed, s) in enumerate(zip(probe.outcomes, seeds)):
            rows.append([est.length, probe.intensity, crossed, r, s])
    return rows


def cmd_bounds(args) -> int:
    check_seed(args.seed)
    report = measures.theorem_bounds(args.d, args.L, args.law, delta=args.delta, strict=False)
    # no bound applies below the lower bound's range
    measures.check_bound_validity(report.d, args.L, args.law, "lower")
    _emit(
        {
            "kind": "bounds",
            "d": report.d,
            "L": report.length,
            "law": report.law,
            "delta": report.delta,
            "lower": report.lower,
            "upper": report.upper,
            "lower_valid": True,
            "upper_valid": bool(args.L > measures.bound_validity_threshold(report.d, args.law, "upper")),
        }
    )
    return 0


def _threshold_args(args, law, length: float) -> tuple:
    """``estimate_threshold``'s arguments at ``length``, which
    ``check_threshold_inputs`` takes in the same order."""
    side = args.s_factor * length
    return args.d, length, law, side, args.replicates, args.seed, args.axis, args.workers, args.max_bisect


def _estimate_doc(est: percolation.ThresholdEstimate) -> dict:
    return {
        "d": est.d,
        "L": est.length,
        "law": est.law,
        "side": est.side,
        "lambda_hat": est.lambda_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "replicates_per_probe": est.replicates_per_probe,
        "bracket": list(est.bracket),
        "probes": [_probe_doc(p) for p in est.probes],
        "seed": est.seed,
    }


def cmd_threshold(args) -> int:
    with _csv_output(args.probes_csv, "probes", ["L", "lambda", "crossed", "replicate", "seed"]) as rows:
        est = percolation.estimate_threshold(*_threshold_args(args, _law_object(args.law, args.d), args.L))
        rows += _threshold_csv_rows(est)
    _emit({"kind": "threshold", **_estimate_doc(est)})
    return 0


def cmd_scaling(args) -> int:
    percolation.check_scaling_lengths(args.L_list)
    law = _law_object(args.law, args.d)
    for length in args.L_list:
        percolation.check_threshold_inputs(*_threshold_args(args, law, length))
    points = []
    estimates = []
    with _csv_output(args.csv, "scaling", ["L", "lambda_hat", "ci_low", "ci_high", "weight"]) as rows:
        for length in args.L_list:
            _log(f"estimating threshold at L={length:g}")
            est = percolation.estimate_threshold(*_threshold_args(args, law, length))
            estimates.append(est)
            points.append((length, est.lambda_hat, percolation.fit_weight(est)))
        fit = percolation.scaling_fit(points)
        rows += [[est.length, est.lambda_hat, est.ci_low, est.ci_high, pt[2]] for est, pt in zip(estimates, points)]
    _emit(
        {
            "kind": "scaling",
            "d": args.d,
            "law": args.law,
            "s_factor": args.s_factor,
            "replicates": args.replicates,
            "seed": args.seed,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "stderr": fit.stderr,
            "points": [
                {"L": est.length, "lambda_hat": est.lambda_hat, "ci_low": est.ci_low, "ci_high": est.ci_high}
                for est in estimates
            ],
            "estimates": [_estimate_doc(est) for est in estimates],
        }
    )
    return 0


def cmd_branching(args) -> int:
    runs = check_integer(args.gw_runs, "gw_runs", 0)
    branching.check_caps(args.max_generations, args.population_cap)
    law = _law_object(args.law, args.d)
    d = args.d
    bound = measures.gw_offspring_bound(d, args.L, args.lam, args.law)
    example_sizes: list[int] = []
    with _csv_output(args.samples_csv, "offspring", ["trial", "count"]) as rows:
        est = branching.offspring_mean_mc(d, args.L, args.lam, law, args.trials, args.seed)
        gw_extinct = 0
        for k in range(runs):
            # run k's seed is seed + k mod 2^64, the value derive_seed reads
            report = branching.dominating_gw_run(
                est.samples, args.max_generations, args.population_cap, (args.seed + k) % 2**64
            )
            gw_extinct += 1 if report.extinct else 0
            if k == 0:
                example_sizes = list(report.generation_sizes)
        rows += [[i, v] for i, v in enumerate(est.samples)]
    _emit(
        {
            "kind": "branching",
            "d": d,
            "L": args.L,
            "intensity": args.lam,
            "law": args.law,
            "trials": est.trials,
            "mean": est.mean,
            "stderr": est.stderr,
            "offspring_bound": bound,
            "below_bound": est.mean <= bound + 3.0 * est.stderr,
            "gw_runs": runs,
            "gw_extinct": gw_extinct,
            "gw_max_generations": args.max_generations,
            "gw_population_cap": args.population_cap,
            "gw_example_generations": example_sizes,
            "seed": args.seed,
        }
    )
    return 0


def cmd_oriented(args) -> int:
    with _csv_output(args.csv, "oriented", ["alpha", "trial", "survived", "extinction_level"]) as rows:
        stats = oriented.survival_probability(args.alpha, args.variant, args.n_max, args.trials, args.seed)
        rows += [[stats.alpha, t, 1 if lvl < 0 else 0, lvl] for t, lvl in enumerate(stats.extinction_levels)]
    _emit(
        {
            "kind": "oriented",
            "alpha": stats.alpha,
            "variant": stats.variant,
            "n_max": stats.n_max,
            "trials": stats.trials,
            "survivors": stats.survivors,
            "fraction": stats.fraction,
            "ci_low": stats.ci_low,
            "ci_high": stats.ci_high,
            "seed": args.seed,
        }
    )
    return 0


def cmd_measure_mc(args) -> int:
    bound = measures.two_ball_lower_bound(args.d, args.L, delta=args.delta, intensity=args.lam)
    est = measures.mc_two_ball_measure(args.d, args.L, Uniform(), args.trials, args.seed, intensity=args.lam)
    _emit(
        {
            "kind": "measure_mc",
            "d": args.d,
            "L": args.L,
            "intensity": args.lam,
            "delta": args.delta,
            "trials": est.trials,
            "hits": est.hits,
            "estimate": est.value,
            "stderr": est.stderr,
            "lower_bound": bound,
            "above_bound": est.value + 3.0 * est.stderr >= bound,
            "seed": args.seed,
        }
    )
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_suite(args.suite, args.seed)
    for check in checks:
        _log(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    passed = all(c.passed for c in checks)
    _emit(
        {
            "kind": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
            "passed": passed,
        }
    )
    return 0 if passed else 1


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _config_argv(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The JSON object in ``path`` as flags of ``parser``: each key is an
    option dest, so the parser checks every name and value itself.  A null
    value leaves its option at the default."""
    flags = {a.dest: a.option_strings[0] for a in parser._actions if a.dest != "help"}
    try:
        with open(path) as fh:
            items = json.load(fh).items()
    except (OSError, ValueError, AttributeError) as exc:
        parser.error(f"--config {path}: {exc}")
    argv = []
    for key, value in items:
        if key not in flags:
            parser.error(f"--config {path}: {key!r} is not an option of this command")
        if value is not None:
            argv.append(f"{flags[key]}={value}")
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stickperc")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None, help="JSON file of option dests and values")
        p.set_defaults(func=func, parser=p)
        return p

    def estimator(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--law", choices=["uniform", "rigid"], required=True)
        p.add_argument("--s-factor", dest="s_factor", type=float, default=10.0)
        p.add_argument("--replicates", type=int, default=200)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--axis", type=int, default=0)
        p.add_argument("--max-bisect", dest="max_bisect", type=int, default=12)

    p = command("bounds", cmd_bounds, "critical-intensity bracket for (d, L, law)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--law", choices=["uniform", "rigid", "density"], required=True)
    p.add_argument("--delta", type=float, default=1.0)

    p = command("threshold", cmd_threshold, "estimate the crossing intensity at one L")
    estimator(p)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--probes-csv", dest="probes_csv", type=str, default=None)

    p = command("scaling", cmd_scaling, "thresholds across an L list plus log-log fit")
    estimator(p)
    p.add_argument("--L-list", dest="L_list", type=_float_list, default="8,16,32,64")
    p.add_argument("--csv", type=str, default=None)

    p = command("branching", cmd_branching, "offspring-mean Monte Carlo and dominating GW runs")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--law", choices=["uniform", "rigid"], default="uniform")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--gw-runs", dest="gw_runs", type=int, default=200)
    p.add_argument("--max-generations", dest="max_generations", type=int, default=60)
    p.add_argument("--population-cap", dest="population_cap", type=int, default=100000)
    p.add_argument("--samples-csv", dest="samples_csv", type=str, default=None)

    p = command("oriented", cmd_oriented, "oriented-percolation survival estimate")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--variant", choices=["bond", "site"], default="bond")
    p.add_argument("--n-max", dest="n_max", type=int, default=500)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--csv", type=str, default=None)

    p = command("measure-mc", cmd_measure_mc, "two-ball connection measure Monte Carlo")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, default=256.0)
    p.add_argument("--trials", type=int, default=1000000)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)

    p = command("verify", cmd_verify, "run seeded property suites")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # config flags go right after the subcommand, so explicit flags win
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_argv(args.parser, args.config) + argv[at:])
    try:
        return args.func(args)
    except StickPercError as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The parts of the package that the benchmark and the demos use.

Tier-1 does not run ``benchmarks/`` or every demo line, so a deleted name or
parameter could break them unseen.  These tests parse their sources and
check that every name they import from ``stickperc`` still resolves and
that every call they make into the package still binds to its signature;
and, the other way round, that every name the package exports is used by
the program, the benchmark or the demos, not only by tests.  Every entry
point that takes ``d`` or another integer treats an integral float as its
int, every one that takes a real number checks it by one rule and goes on
with its float, laws and names are refused before any draw or pool start,
each input rule is raised from one function only, and each stage of the
edge pipeline is called from ``_batch_edges`` and its one other front.
"""

import ast
import contextlib
import importlib
import inspect
import io
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from stickperc import branching, cli, geometry, measures, oriented, percolation, sampling, verify
from stickperc.errors import DomainError
from stickperc.rng import substream

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "stickperc"


def package_imports(tree):
    """(local name, module, attribute) for each ``from stickperc... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stickperc":
            for alias in node.names:
                yield alias.asname or alias.name, node.module, alias.name


def resolve(tree):
    names = {}
    for local, module, attr in package_imports(tree):
        names[local] = getattr(importlib.import_module(module), attr)
    return names


def package_calls(tree, names):
    """(callee name, callee, positional count, keyword names) for each call of
    an imported package function, and for each one handed to a wrapper such
    as the benchmark clock, ``clock(label, f, *args, **kwargs)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        keywords = [k.arg for k in node.keywords]
        if isinstance(node.func, ast.Name) and node.func.id in names:
            yield node.func.id, names[node.func.id], len(node.args), keywords
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and callable(names.get(arg.id)):
                yield arg.id, names[arg.id], len(node.args) - i - 1, keywords


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    tree = ast.parse(path.read_text())
    for local, module, attr in package_imports(tree):
        assert hasattr(importlib.import_module(module), attr), f"{path.name}: {module}.{attr} is gone"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_calls_bind(path):
    tree = ast.parse(path.read_text())
    for name, func, positional, keywords in package_calls(tree, resolve(tree)):
        signature = inspect.signature(func)
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{path.name}: {name}({positional} positional, {keywords}) no longer binds: {exc}")


def test_benchmark_keyword_calls_are_scanned():
    """The two keyword calls the benchmark times are among those checked."""
    seen = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, _, positional, keywords in package_calls(tree, resolve(tree)):
            seen.add((name, positional, tuple(sorted(keywords))))
    assert ("crossing_event", 1, ("axis", "cell")) in seen
    assert ("estimate_threshold", 4, ("replicates", "seed", "workers")) in seen


def referenced_names(tree):
    """Each name a module reads, each attribute it takes and each name it
    imports: definitions alone are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_export_is_used():
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + SOURCES
    used = {name for path in users for name in referenced_names(ast.parse(path.read_text()))}
    assert sorted(exported - used) == []


# every public entry point that takes d, at small trials and sizes
DIMENSION_ENTRY_POINTS = {
    "ball_volume": lambda d: measures.ball_volume(d, 1.5),
    "stick_hit_volume": lambda d: measures.stick_hit_volume(d, 10.0, 2.0),
    "cap_hit_probability_exact": lambda d: measures.cap_hit_probability_exact(d, 1.0, 3.0),
    "cap_hit_lower_bound": lambda d: measures.cap_hit_lower_bound(d, 1.0, 3.0),
    "c_d": lambda d: measures.c_d(d),
    "c_d_prime": lambda d: measures.c_d_prime(d),
    "lower_bound_constant": lambda d: measures.lower_bound_constant(d, "uniform"),
    "upper_bound_constant": lambda d: measures.upper_bound_constant(d, "density", 0.5),
    "bound_validity_threshold": lambda d: measures.bound_validity_threshold(d, "uniform", "upper"),
    "check_bound_validity": lambda d: measures.check_bound_validity(d, 400.0, "uniform", "upper"),
    "theorem_bounds": lambda d: measures.theorem_bounds(d, 400.0, "uniform"),
    "gw_offspring_bound": lambda d: measures.gw_offspring_bound(d, 20.0, 0.01, "uniform"),
    "ConstructionGeometry": lambda d: (geom := measures.ConstructionGeometry(d, 256.0), geom.box((-1, 0))),
    "lattice_T_count": lambda d: measures.lattice_T_count(d, 400.0),
    "lattice_T_count_bound": lambda d: measures.lattice_T_count_bound(d, 400.0),
    "mc_stick_hit_volume": lambda d: measures.mc_stick_hit_volume(d, 10.0, 2.0, 1000, 1),
    "mc_cap_hit_probability": lambda d: measures.mc_cap_hit_probability(d, 1.0, 3.0, 1000, 1),
    "mc_two_ball_measure": lambda d: measures.mc_two_ball_measure(d, 256.0, 1000, 1),
    "two_ball_lower_bound": lambda d: measures.two_ball_lower_bound(d, 256.0, 1.0),
    "BoxRegion.cube": lambda d: sampling.BoxRegion.cube(d, 5.0),
    "sample_window_configuration": lambda d: sampling.sample_window_configuration(
        d, 8.0, 0.04, sampling.Uniform(), 64.0, 1
    ),
    "check_threshold_inputs": lambda d: percolation.check_threshold_inputs(
        d, 8.0, sampling.Uniform(), 64.0, 4, 1, 0, 1, 12
    ),
    "estimate_threshold": lambda d: percolation.estimate_threshold(d, 8.0, sampling.Uniform(), 64.0, 4, 1),
    "offspring_mean_mc": lambda d: branching.offspring_mean_mc(d, 10.0, 0.1, sampling.Uniform(), 10, 1),
    "component_exploration": lambda d: branching.component_exploration(
        d, 10.0, 0.01, sampling.Uniform(), 3, 100, 1
    ),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_ENTRY_POINTS))
def test_dimension_is_checked_and_used(name):
    """``d = 2.0`` gives the result of ``d = 2`` to the last bit, its ints
    included, and ``d = 2.5``, NaN and inf are refused by ``check_dim``."""
    call = DIMENSION_ENTRY_POINTS[name]
    assert pickle.dumps(call(2.0)) == pickle.dumps(call(2))
    for d in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="^dimension must be an integer >= 2$"):
            call(d)


def small_configuration():
    return sampling.sample_window_configuration(2, 8.0, 0.04, sampling.Uniform(), 64.0, 1)


def branching_stdout(gw_runs):
    """The stdout of the ``branching`` command run with ``gw_runs`` GW runs
    of a subcritical offspring law, each capped at 1000 individuals."""
    args = cli.build_parser().parse_args(
        ["branching", "--d", "2", "--L", "10", "--lambda", "0.001", "--trials", "20", "--population-cap", "1000"]
    )
    args.gw_runs = gw_runs
    with contextlib.redirect_stdout(io.StringIO()) as out:
        args.func(args)
    return out.getvalue()


def threshold(**kwargs):
    return percolation.estimate_threshold(2, 8.0, sampling.Uniform(), 64.0, **{"replicates": 4, "seed": 1, **kwargs})


# every public integer input but d: its entry point at small sizes, a valid
# value and the integer rule's wording for it
INTEGER_ENTRY_POINTS = {
    "crossing_event-axis": (lambda v: percolation.crossing_event(small_configuration(), axis=v), 1, "axis", 0),
    "check_threshold_inputs-axis": (
        lambda v: percolation.check_threshold_inputs(2, 8.0, sampling.Uniform(), 64.0, 4, 1, v, 1, 12), 1, "axis", 0
    ),
    "estimate_threshold-axis": (lambda v: threshold(axis=v), 1, "axis", 0),
    "estimate_threshold-replicates": (lambda v: threshold(replicates=v), 3, "replicates", 1),
    "estimate_threshold-workers": (lambda v: threshold(workers=v), 1, "workers", 1),
    "estimate_threshold-max_bisect": (lambda v: threshold(max_bisect=v), 2, "max_bisect", 0),
    "Frontier-level": (lambda v: oriented.op_step(oriented.Frontier(v, [1]), 0.7, "bond", substream(1)), 3, "level", 0),
    "survival_probability-trials": (lambda v: oriented.survival_probability(0.7, "bond", 10, v, 1), 5, "trials", 1),
    "survival_probability-n_max": (lambda v: oriented.survival_probability(0.7, "bond", v, 5, 1), 10, "n_max", 1),
    "coupled_survival_matrix-trials": (
        lambda v: oriented.coupled_survival_matrix([0.5, 0.8], 10, v, 1), 5, "trials", 1
    ),
    "coupled_survival_matrix-n_max": (
        lambda v: oriented.coupled_survival_matrix([0.5, 0.8], v, 5, 1), 10, "n_max", 1
    ),
    "offspring_mean_mc-trials": (
        lambda v: branching.offspring_mean_mc(2, 10.0, 0.1, sampling.Uniform(), v, 1), 10, "trials", 2
    ),
    "mc_stick_hit_volume-trials": (
        lambda v: measures.mc_stick_hit_volume(2, 10.0, 2.0, v, 1), 1000, "trials", 1
    ),
    "mc_cap_hit_probability-trials": (lambda v: measures.mc_cap_hit_probability(3, 1.0, 3.0, v, 1), 1000, "trials", 1),
    "mc_two_ball_measure-trials": (
        lambda v: measures.mc_two_ball_measure(2, 256.0, v, 1), 1000, "trials", 1
    ),
    # offspring 0 or 1: no generation outgrows one individual, capped or not
    "dominating_gw_run-max_generations": (
        lambda v: branching.dominating_gw_run([0, 1], v, 100, 1), 5, "max_generations", 1
    ),
    "dominating_gw_run-population_cap": (lambda v: branching.dominating_gw_run([0], 5, v, 1), 100, "population_cap", 1),
    "component_exploration-max_generations": (
        lambda v: branching.component_exploration(2, 10.0, 0.01, sampling.Uniform(), v, 100, 1),
        3, "max_generations", 1,
    ),
    "component_exploration-population_cap": (
        lambda v: branching.component_exploration(2, 10.0, 0.01, sampling.Uniform(), 3, v, 1),
        100, "population_cap", 1,
    ),
    "cli-gw_runs": (branching_stdout, 3, "gw_runs", 0),
    # every public entry point that takes a seed
    "sample_window_configuration-seed": (
        lambda v: sampling.sample_window_configuration(2, 8.0, 0.04, sampling.Uniform(), 64.0, v), 3, "seed", 0
    ),
    "check_threshold_inputs-seed": (
        lambda v: percolation.check_threshold_inputs(2, 8.0, sampling.Uniform(), 64.0, 4, v, 0, 1, 12), 3, "seed", 0
    ),
    "estimate_threshold-seed": (lambda v: threshold(seed=v), 3, "seed", 0),
    "offspring_mean_mc-seed": (
        lambda v: branching.offspring_mean_mc(2, 10.0, 0.1, sampling.Uniform(), 10, v), 3, "seed", 0
    ),
    "dominating_gw_run-seed": (lambda v: branching.dominating_gw_run([0, 1, 2], 5, 100, v), 3, "seed", 0),
    "component_exploration-seed": (
        lambda v: branching.component_exploration(2, 10.0, 0.01, sampling.Uniform(), 3, 100, v), 3, "seed", 0
    ),
    "survival_probability-seed": (lambda v: oriented.survival_probability(0.7, "bond", 10, 5, v), 3, "seed", 0),
    "coupled_survival_matrix-seed": (
        lambda v: oriented.coupled_survival_matrix([0.5, 0.8], 10, 5, v), 3, "seed", 0
    ),
    "mc_stick_hit_volume-seed": (
        lambda v: measures.mc_stick_hit_volume(2, 10.0, 2.0, 1000, v), 3, "seed", 0
    ),
    "mc_cap_hit_probability-seed": (lambda v: measures.mc_cap_hit_probability(3, 1.0, 3.0, 1000, v), 3, "seed", 0),
    "mc_two_ball_measure-seed": (
        lambda v: measures.mc_two_ball_measure(2, 256.0, 1000, v), 3, "seed", 0
    ),
    "run_suite-seed": (lambda v: verify.run_suite("geometry", v), 3, "seed", 0),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
def test_integer_input_is_checked_and_used(name):
    """An integral float gives the result of its int to the last bit, its
    ints included, and 2.5, NaN, inf and the integer below the least are
    refused by the integer rule."""
    call, value, noun, least = INTEGER_ENTRY_POINTS[name]
    assert pickle.dumps(call(float(value))) == pickle.dumps(call(value))
    for bad in (2.5, math.nan, math.inf, least - 1):
        with pytest.raises(DomainError, match=f"^{noun} must be an integer >= {least}$"):
            call(bad)


@pytest.mark.parametrize("name", sorted(key for key in INTEGER_ENTRY_POINTS if key.endswith("-seed")))
def test_seed_below_2_64_is_checked(name):
    """The largest seed, 2^64 - 1, runs, and a seed of 2^64 or more, which
    ``derive_seed`` would read as its remainder mod 2^64, is refused."""
    call, *_ = INTEGER_ENTRY_POINTS[name]
    call(2**64 - 1)
    for bad in (2**64, float(2**64), 2**64 + 3, 2**100):
        with pytest.raises(DomainError, match=f"^seed must be below 2\\^64, got {int(bad)}$"):
            call(bad)


def check_threshold(length=8.0, side=64.0):
    return percolation.check_threshold_inputs(2, length, sampling.Uniform(), side, 4, 1, 0, 1, 12)


def scaling_fit(point):
    """The fit of three points, the middle one ``point``."""
    return percolation.scaling_fit([(8, 8.0**-2, 1.0), point, (32, 32.0**-2, 1.0)])


# every public real input: its entry point at small sizes, a valid integral
# value, and the noun and interval of the real rule's wording for it
REAL_ENTRY_POINTS = {
    "BoxRegion.cube-side": (lambda v: sampling.BoxRegion.cube(2, v), 5, "window side", "(0, inf)"),
    "sample_window_configuration-length": (
        lambda v: sampling.sample_window_configuration(2, v, 0.04, sampling.Uniform(), 64.0, 1),
        8, "stick length", "(0, inf)",
    ),
    "sample_window_configuration-intensity": (
        lambda v: sampling.sample_window_configuration(2, 8.0, v, sampling.Uniform(), 64.0, 1),
        1, "intensity", "[0, inf)",
    ),
    "sample_window_configuration-side": (
        lambda v: sampling.sample_window_configuration(2, 8.0, 0.04, sampling.Uniform(), v, 1),
        64, "window side", "(0, inf)",
    ),
    "check_expected_count-mean": (sampling.check_expected_count, 3, "poisson mean", "[0, inf)"),
    "segments_hit_ball-rho": (
        lambda v: geometry.segments_hit_ball([[0.0, 0.0]], [[1.0, 0.0]], 1.0, [0.0, 2.0], v), 2, "radius", "(0, inf)"
    ),
    "ball_volume-rho": (lambda v: measures.ball_volume(2, v), 1, "radius", "[0, inf)"),
    "stick_hit_volume-length": (lambda v: measures.stick_hit_volume(2, v, 2.0), 0, "stick length", "[0, inf)"),
    "stick_hit_volume-rho": (lambda v: measures.stick_hit_volume(2, 10.0, v), 2, "radius", "(0, inf)"),
    "upper_bound_constant-delta": (
        lambda v: measures.upper_bound_constant(2, "density", v), 1, "density floor delta", "(0, 1]"
    ),
    "check_bound_validity-length": (
        lambda v: measures.check_bound_validity(2, v, "uniform", "upper"), 400, "stick length", "(0, inf)"
    ),
    "theorem_bounds-length": (lambda v: measures.theorem_bounds(2, v, "uniform"), 400, "stick length", "(0, inf)"),
    "theorem_bounds-delta": (
        lambda v: measures.theorem_bounds(2, 400.0, "density", delta=v), 1, "density floor delta", "(0, 1]"
    ),
    "gw_offspring_bound-length": (
        lambda v: measures.gw_offspring_bound(2, v, 0.01, "uniform"), 20, "stick length", "(0, inf)"
    ),
    "gw_offspring_bound-intensity": (
        lambda v: measures.gw_offspring_bound(2, 20.0, v, "uniform"), 1, "intensity", "[0, inf)"
    ),
    "ConstructionGeometry-length": (
        lambda v: measures.ConstructionGeometry(2, v), 256, "stick length", "(0, inf)"
    ),
    "lattice_T_count-length": (lambda v: measures.lattice_T_count(2, v), 400, "stick length", "(0, inf)"),
    "lattice_T_count_bound-length": (
        lambda v: measures.lattice_T_count_bound(2, v), 400, "stick length", "(0, inf)"
    ),
    "mc_stick_hit_volume-length": (
        lambda v: measures.mc_stick_hit_volume(2, v, 2.0, 1000, 1), 10, "stick length", "(0, inf)"
    ),
    "mc_stick_hit_volume-rho": (
        lambda v: measures.mc_stick_hit_volume(2, 10.0, v, 1000, 1), 2, "radius", "(0, inf)"
    ),
    "mc_two_ball_measure-length": (
        lambda v: measures.mc_two_ball_measure(2, v, 1000, 1), 256, "stick length", "(0, inf)"
    ),
    "mc_two_ball_measure-intensity": (
        lambda v: measures.mc_two_ball_measure(2, 256.0, 1000, 1, intensity=v),
        1, "intensity", "[0, inf)",
    ),
    "two_ball_lower_bound-length": (
        lambda v: measures.two_ball_lower_bound(2, v, 1.0), 256, "stick length", "(0, inf)"
    ),
    "two_ball_lower_bound-delta": (
        lambda v: measures.two_ball_lower_bound(2, 256.0, v), 1, "density floor delta", "(0, 1]"
    ),
    "two_ball_lower_bound-intensity": (
        lambda v: measures.two_ball_lower_bound(2, 256.0, 1.0, intensity=v), 1, "intensity", "[0, inf)"
    ),
    "offspring_mean_mc-length": (
        lambda v: branching.offspring_mean_mc(2, v, 0.1, sampling.Uniform(), 10, 1), 10, "stick length", "(0, inf)"
    ),
    "offspring_mean_mc-intensity": (
        lambda v: branching.offspring_mean_mc(2, 10.0, v, sampling.Uniform(), 10, 1), 1, "intensity", "[0, inf)"
    ),
    "component_exploration-length": (
        lambda v: branching.component_exploration(2, v, 0.01, sampling.Uniform(), 3, 100, 1),
        10, "stick length", "(0, inf)",
    ),
    "component_exploration-intensity": (
        lambda v: branching.component_exploration(2, 10.0, v, sampling.Uniform(), 3, 100, 1),
        1, "intensity", "[0, inf)",
    ),
    "check_threshold_inputs-length": (lambda v: check_threshold(length=v), 8, "stick length", "(0, inf)"),
    "check_threshold_inputs-side": (lambda v: check_threshold(side=v), 64, "window side", "(0, inf)"),
    "estimate_threshold-length": (
        lambda v: percolation.estimate_threshold(2, v, sampling.Uniform(), 64.0, 4, 1), 8, "stick length", "(0, inf)"
    ),
    "estimate_threshold-side": (
        lambda v: percolation.estimate_threshold(2, 8.0, sampling.Uniform(), v, 4, 1), 64, "window side", "(0, inf)"
    ),
    "scaling_fit-L": (lambda v: scaling_fit((v, 16.0**-2, 1.0)), 16, "scaling point L", "(0, inf)"),
    "scaling_fit-lambda": (lambda v: scaling_fit((16, v, 1.0)), 1, "scaling point lambda", "(0, inf)"),
    "scaling_fit-weight": (lambda v: scaling_fit((16, 16.0**-2, v)), 2, "scaling point weight", "(0, inf)"),
    "op_step-alpha": (
        lambda v: oriented.op_step(oriented.Frontier.origin(), v, "bond", substream(1)), 1, "alpha", "[0, 1]"
    ),
    "survival_probability-alpha": (
        lambda v: oriented.survival_probability(v, "bond", 10, 5, 1), 1, "alpha", "[0, 1]"
    ),
    "coupled_survival_matrix-alpha": (
        lambda v: oriented.coupled_survival_matrix([0, v], 10, 5, 1), 1, "alpha", "[0, 1]"
    ),
    "coupled_survival_monotonicity-alpha": (
        lambda v: oriented.coupled_survival_monotonicity([0, v], 10, 5, 1), 1, "alpha", "[0, 1]"
    ),
}


def refused_reals(interval):
    """Values outside ``interval`` and values that are not numbers: NaN, its
    open lower end, a value below it and one above it, inf (above every
    interval) and a string."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    return [math.nan, *([low] if interval[0] == "(" else []), low - 1.0, *([high + 0.5] if high < math.inf else []),
            math.inf, "x"]


def real_rule(noun, interval, value):
    """The real rule's wording, as a full-match pattern."""
    return f"^{re.escape(f'{noun} must be a number in {interval}, got {value!r}')}$"


@pytest.mark.parametrize("name", sorted(REAL_ENTRY_POINTS))
def test_real_input_is_checked_and_used(name):
    """An int and a numpy float give the result of their float to the last
    bit, and every value outside the interval, NaN and a value that is not
    a number are refused by the real rule."""
    call, value, noun, interval = REAL_ENTRY_POINTS[name]
    expected = pickle.dumps(call(float(value)))
    assert pickle.dumps(call(value)) == expected
    assert pickle.dumps(call(np.float64(value))) == expected
    for bad in refused_reals(interval):
        with pytest.raises(DomainError, match=real_rule(noun, interval, bad)):
            call(bad)


@pytest.mark.parametrize(
    "name", sorted(key.removesuffix("-intensity") for key in REAL_ENTRY_POINTS if key.endswith("-intensity"))
)
def test_intensity_is_checked_by_one_rule(name):
    """Intensity 0, the closed end of its interval, is accepted, as an int too."""
    call, *_ = REAL_ENTRY_POINTS[f"{name}-intensity"]
    assert pickle.dumps(call(0)) == pickle.dumps(call(0.0))


@pytest.mark.parametrize("name", ["BoxRegion.cube", "estimate_threshold", "sample_window_configuration"])
@pytest.mark.parametrize("side", [math.nan, math.inf, 0.0, -1.0, "64"], ids=["nan", "inf", "zero", "negative", "text"])
def test_window_side_is_checked_by_one_rule(name, side):
    call, _, noun, interval = REAL_ENTRY_POINTS[f"{name}-side"]
    with pytest.raises(DomainError, match=real_rule(noun, interval, side)):
        call(side)


LAW = "law must be a Uniform or Rigid orientation law, got 'uniform'"

# a law tag where a law object is needed, an axis that is not numeric, and
# a name that is not one of its choices: each entry point and the wording
# that refuses it
LAW_AND_CHOICE_CASES = {
    "estimate_threshold-law": (
        lambda: percolation.estimate_threshold(2, 8.0, "rigid", 64.0, 4, 1, workers=2),
        "law must be a Uniform or Rigid orientation law, got 'rigid'",
    ),
    "sample_window_configuration-law": (
        lambda: sampling.sample_window_configuration(2, 8.0, 0.04, "uniform", 64.0, 1), LAW
    ),
    "offspring_mean_mc-law": (lambda: branching.offspring_mean_mc(2, 10.0, 0.1, "uniform", 10, 1), LAW),
    "component_exploration-law": (
        lambda: branching.component_exploration(2, 10.0, 0.01, "uniform", 3, 100, 1), LAW
    ),
    "Rigid-axis": (lambda: sampling.Rigid(["a", 1.0]), "rigid axis must be a finite nonzero vector"),
    "run_suite-suite": (
        lambda: verify.run_suite("nope", 1),
        "suite must be one of ('geometry', 'measures', 'branching', 'oriented', 'all'), got 'nope'",
    ),
    "survival_probability-variant": (
        lambda: oriented.survival_probability(0.7, 5, 10, 5, 1), "variant must be one of ('bond', 'site'), got 5"
    ),
    "survival_probability-upper-case-variant": (
        lambda: oriented.survival_probability(0.7, "BOND", 10, 5, 1),
        "variant must be one of ('bond', 'site'), got 'BOND'",
    ),
    "bound_validity_threshold-side": (
        lambda: measures.bound_validity_threshold(2, "uniform", "nope"),
        "side must be one of ('lower', 'upper'), got 'nope'",
    ),
    "check_bound_validity-side": (
        lambda: measures.check_bound_validity(2, 100.0, "uniform", "nope"),
        "side must be one of ('lower', 'upper'), got 'nope'",
    ),
    "theorem_bounds-law": (
        lambda: measures.theorem_bounds(2, 400.0, 5), "law must be one of ('uniform', 'rigid', 'density'), got 5"
    ),
}


@pytest.mark.parametrize("name", sorted(LAW_AND_CHOICE_CASES))
def test_law_and_choice_refused_before_any_pool(monkeypatch, name):
    call, message = LAW_AND_CHOICE_CASES[name]
    pools = []
    monkeypatch.setattr(percolation, "_replicate_pool", pools.append)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
    assert pools == []


# the call forms from before the Monte Carlo verifiers sampled the uniform
# law alone and the coupled runs were bond's alone
OLD_CALL_FORMS = {
    "mc_stick_hit_volume-law": (
        lambda: measures.mc_stick_hit_volume(2, 10.0, 2.0, sampling.Uniform(), 1000, 1), TypeError, "positional"
    ),
    # the law lands on trials, which the integer rule refuses
    "mc_two_ball_measure-law": (
        lambda: measures.mc_two_ball_measure(2, 256.0, sampling.Uniform(), 1000, 1), DomainError,
        "^trials must be an integer >= 1$",
    ),
    "coupled_survival_matrix-variant": (
        lambda: oriented.coupled_survival_matrix([0.5], "bond", 10, 5, 1), TypeError, "positional"
    ),
    "coupled_survival_monotonicity-variant": (
        lambda: oriented.coupled_survival_monotonicity([0.5], "bond", 10, 5, 1), TypeError, "positional"
    ),
}


@pytest.mark.parametrize("name", sorted(OLD_CALL_FORMS))
def test_old_call_forms_fail_before_any_draw(monkeypatch, name):
    call, error, message = OLD_CALL_FORMS[name]
    draws = []
    monkeypatch.setattr(measures, "substream", lambda *args: draws.append(args))
    monkeypatch.setattr(oriented, "_extinction_levels", lambda *args: draws.append(args))
    with pytest.raises(error, match=message):
        call()
    assert draws == []


def enclosed(node, where):
    """(function, child) for each node under ``node``; ``function`` is the
    innermost enclosing def or class, dotted after ``where``."""
    for child in ast.iter_child_nodes(node):
        yield where, child
        inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from enclosed(child, f"{where}.{child.name}" if inner else where)


# every node of the package, with its function named after its module's stem
PACKAGE_NODES = [
    pair for path in sorted(PACKAGE.glob("*.py")) for pair in enclosed(ast.parse(path.read_text()), path.stem)
]


@pytest.mark.parametrize(
    "wording, homes",
    [
        ("must be an integer >=", {"sampling.check_integer"}),
        ("stick length must be", set()),
        # the two-ball lemma's own L > 32 is not a theorem bound's range
        ("requires L >", {"measures.check_bound_validity", "measures.mc_two_ball_measure"}),
        ("exceed guard of", {"sampling.check_runs"}),
        ("0 < rho < r", {"measures.check_cap"}),
        # the count wordings that the integer rule replaced
        *[(wording, set()) for wording in (
            "max_bisect must be nonnegative", "need at least one replicate", "workers must be at least 1",
            "level must be nonnegative", "trials and n_max must be positive", "need at least two trials",
            "caps must be positive", "need at least one trial", "gw_runs must be nonnegative",
        )],
        # the wordings that the real rule replaced
        ("intensity must be", set()),
        ("window side must be", set()),
        ("intensity must be positive", set()),
        ("must be a number in", {"sampling.check_real"}),
        ("must be one of", {"sampling.check_choice"}),
        ("orientation law, got", {"sampling.check_law"}),
        *[(wording, set()) for wording in (
            "density floor delta must satisfy", "poisson mean must be", "radius must be",
            "length must be finite and nonnegative", "alpha must lie in", "scaling points need",
            "unknown law tag",
        )],
        # added last, so the rows above keep their ids
        ("seed must be below 2^64", {"sampling.check_seed"}),
        ("sites must be integers in the int64 range", {"oriented.Frontier.__post_init__"}),
        ("packed runs of n_max", {"oriented._extinction_levels"}),
        ("has a child outside the int64 range", {"oriented._check_children_fit"}),
        ("packed runs of sites in", {"oriented._coupled_steps"}),
    ],
)
def test_each_input_rule_is_raised_in_one_place(wording, homes):
    raisers = {
        function for function, node in PACKAGE_NODES if isinstance(node, ast.Raise) for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and wording in sub.value
    }
    assert raisers == homes


PIPELINE_CALLERS = {
    "_index": {"percolation.build_index", "percolation._batch_edges"},
    "_pair_ids": {"percolation.SpatialIndex.candidate_pairs", "percolation._batch_edges"},
    "_box_words": {"percolation._batch_edges"},
    "_boxes_meet": {"percolation._batch_edges"},
    # geometry's own front of its kernel, and the pipeline
    "_segment_distance": {"geometry.segment_distance_arrays", "percolation._batch_edges"},
    "_labels": {"percolation.UnionFind.labels", "percolation._batch_crossings"},
}


def callers(callee, keyword=None):
    """The package's functions that call ``callee``, by name or attribute,
    with the keyword argument ``keyword`` where one is given."""
    return {
        function for function, node in PACKAGE_NODES
        if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and (keyword is None or keyword in [k.arg for k in node.keywords])
    }


@pytest.mark.parametrize("callee", PIPELINE_CALLERS)
def test_one_edge_pipeline(callee):
    # a batch's edges come from _batch_edges alone: an event other than the
    # crossing one reads them there rather than copying the pipeline
    assert callers(callee) == PIPELINE_CALLERS[callee]


DRAW_CALLERS = {
    "draw": ("draw", None, {"sampling.place_sticks", "sampling._DirectionLaw.sample_directions"}),
    "unit": ("unit", None, {"sampling.place_sticks", "sampling._DirectionLaw.sample_directions"}),
    # the centres' uniforms
    "random-out": ("random", "out", {"sampling.place_sticks"}),
}


@pytest.mark.parametrize("case", DRAW_CALLERS)
def test_one_stick_draw(case):
    # sticks are drawn by place_sticks and a law's directions by
    # sample_directions, and every streamed block is one of their draws: a
    # second copy of either draw, or a second stream layout, would fail here
    callee, keyword, homes = DRAW_CALLERS[case]
    assert callers(callee, keyword) == homes


def test_no_stream_is_moved_by_hand():
    # every stream is drawn in order: nothing advances a generator, copies
    # one to draw ahead or sets a generator's state
    assert callers("advance") == callers("deepcopy") == set()
    assert not [function for function, node in PACKAGE_NODES if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Attribute) and target.attr == "state" for target in node.targets)]

"""The parts of the package that the benchmark and the demos use.

Tier-1 does not run ``benchmarks/`` or every demo line, so a deleted name or
parameter could break them unseen.  These tests parse their sources and
check that every name they import from ``stickperc`` still resolves and
that every call they make into the package still binds to its signature;
and, the other way round, that every name the package exports is used by
the program, the benchmark or the demos, not only by tests.  Every entry
point that takes ``d`` treats an integral float as its int, and each input
rule is raised from one function only.
"""

import ast
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

from stickperc import branching, measures, percolation, sampling
from stickperc.errors import DomainError

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
    "mc_stick_hit_volume": lambda d: measures.mc_stick_hit_volume(d, 10.0, 2.0, sampling.Uniform(), 1000, 1),
    "mc_cap_hit_probability": lambda d: measures.mc_cap_hit_probability(d, 1.0, 3.0, 1000, 1),
    "mc_two_ball_measure": lambda d: measures.mc_two_ball_measure(d, 256.0, sampling.Uniform(), 1000, 1),
    "two_ball_lower_bound": lambda d: measures.two_ball_lower_bound(d, 256.0, 1.0),
    "BoxRegion.cube": lambda d: sampling.BoxRegion.cube(d, 5.0),
    "sample_window_configuration": lambda d: sampling.sample_window_configuration(
        d, 8.0, 0.04, sampling.Uniform(), 64.0, 1
    ),
    "check_threshold_inputs": lambda d: percolation.check_threshold_inputs(
        d, 8.0, sampling.Uniform(), 64.0, 4, 0, 1, 12
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
    included, and ``d = 2.5`` is refused by ``check_dim``."""
    call = DIMENSION_ENTRY_POINTS[name]
    assert pickle.dumps(call(2.0)) == pickle.dumps(call(2))
    with pytest.raises(DomainError, match="^dimension must be an integer >= 2$"):
        call(2.5)


def raise_strings(node, where):
    """(function, text) for each string constant in a ``raise`` under
    ``node``; ``function`` is the innermost enclosing def, dotted after
    ``where``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            for sub in ast.walk(child):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield where, sub.value
        elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from raise_strings(child, f"{where}.{child.name}")
        else:
            yield from raise_strings(child, where)


@pytest.mark.parametrize(
    "wording, homes",
    [
        ("dimension must be an integer >= 2", {"sampling.check_dim"}),
        ("stick length must be", {"sampling.check_length"}),
        # the two-ball lemma's own L > 32 is not a theorem bound's range
        ("requires L >", {"measures.check_bound_validity", "measures.mc_two_ball_measure"}),
        ("exceed guard of", {"sampling.check_runs"}),
        ("0 < rho < r", {"measures.check_cap"}),
    ],
)
def test_each_input_rule_is_raised_in_one_place(wording, homes):
    raisers = {
        function
        for path in sorted(PACKAGE.glob("*.py"))
        for function, text in raise_strings(ast.parse(path.read_text()), path.stem)
        if wording in text
    }
    assert raisers == homes

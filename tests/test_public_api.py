"""The parts of the package that the benchmark and the demos use.

Tier-1 does not run ``benchmarks/`` or every demo line, so a deleted name or
parameter could break them unseen.  These tests parse their sources and
check that every name they import from ``stickperc`` still resolves and
that every call they make into the package still binds to its signature;
and, the other way round, that every name the package exports is used by
the program, the benchmark or the demos, not only by tests.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

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

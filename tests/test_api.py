"""The exported surface of each ssflab module."""

import ast
import importlib
import pathlib

import pytest

import ssflab

MODULES = ["cli", "dirac", "doi", "functions", "scattering", "spectral", "ssf", "suites"]

SOURCES = sorted(pathlib.Path(ssflab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench/tracer.py looks up every name of a layer's __all__ with
    # getattr, so a stale entry would crash the traced benchmark
    mod = importlib.import_module(f"ssflab.{name}")
    assert mod.__all__
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports and never reads, outside ``__future__``
    imports, lines marked ``# noqa`` and names listed in ``__all__``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private functions, classes and constants, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_no_unused_private_names():
    # a private name is the package's own business: if no module of it reads
    # the name, nothing does
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = sorted(
        f"{stem}.{name} (line {line})"
        for stem, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )
    assert unused == []

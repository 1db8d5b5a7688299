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

"""The exported surface of each ssflab module."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import ssflab

MODULES = [
    "cli",
    "dirac",
    "doi",
    "functions",
    "reports",
    "scattering",
    "spectral",
    "ssf",
    "suites",
    "utils",
]

SOURCES = sorted(pathlib.Path(ssflab.__file__).parent.glob("*.py"))

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _names_read(tree: ast.AST) -> set:
    """Names a module loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_no_unused_private_names():
    # a private name is the package's own business: if no module of it reads
    # the name, nothing does
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set().union(*map(_names_read, trees.values()))
    unused = sorted(
        f"{stem}.{name} (line {line})"
        for stem, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )
    assert unused == []


def _readme_names() -> set:
    """Identifiers inside README's code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def _benchmark_names() -> set:
    """Names the benchmark's sources read, also as a dotted string such as the
    tracer's ``"ssf.track_determinant_phase"`` or a binding's ``"check_le"``."""
    read = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                    read.update(node.value.split("."))
    return read


def test_no_unused_public_names():
    # the public API is what the other ssflab modules (the CLI among them),
    # README and the benchmark use; a function or constant that only tests
    # call is a second construction of something or dead.  Classes are
    # exempt: they are the types of the values that pass between the users.
    # A module without __all__ fails test_every_exported_name_resolves
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    outside = _readme_names() | _benchmark_names()
    unused = []
    for stem in MODULES:
        mod = importlib.import_module(f"ssflab.{stem}")
        read = outside.union(*(_names_read(t) for s, t in trees.items() if s != stem))
        unused += [
            f"{stem}.{name}"
            for name in getattr(mod, "__all__", ())
            if not inspect.isclass(getattr(mod, name)) and name not in read
        ]
    assert not unused, f"exported, but used nowhere else: {', '.join(unused)}"


LAYERS = ("ssf", "doi", "dirac", "scattering")


def test_suites_read_no_private_name_of_a_layer():
    # every route a suite runs goes through a public name, which the
    # benchmark's tracer wraps; spectral's scalar gates are shared helpers
    path = pathlib.Path(ssflab.__file__).parent / "suites.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            module, names = node.module, [alias.name for alias in node.names]
        else:
            continue
        private += [
            f"{module}.{name} (line {node.lineno})"
            for name in names
            if module in LAYERS and name.startswith("_")
        ]
    assert private == []

"""Every exported name resolves, has a caller and every imported name is
used, so a deletion leaves no stale export or import behind."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cumvol

MODULES = ["cumvol"] + [f"cumvol.{m.name}" for m in pkgutil.iter_modules(cumvol.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from cumvol import *", namespace)
    assert set(cumvol.__all__) <= set(namespace)


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cumvol").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never referenced; ``__all__`` entries
    and ``__future__`` imports count as used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_guard_sees_an_unused_name():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit()\n") == [
        "c (line 3)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\nfrom m import f\n"
                          "__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str, module: str) -> set:
    """(importer, source module, name) for each private name that a package
    module ``module`` imports from another; dunders are not private."""
    return {(module, node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")}


# The private names one module may take from another, each with the reason
# its decision is shared rather than kept in the module that makes it.
SHARED_PRIVATE = {
    # volatility --until-converged sizes its default grid at the drift
    # g + E[a] that steps y, and refuses noise with no stationary law first
    ("cli", "evolution", "_stationary"),
    # evolve's manifest rows carry the steady-state report's quantile fields
    ("cli", "evolution", "_quantile_fields"),
}


def test_private_import_guard_sees_a_private_name():
    source = "from . import __version__\nfrom .evolution import _evolve, run\nimport _x\n"
    assert private_imports(source, "cli") == {("cli", "evolution", "_evolve")}


def test_modules_share_only_the_listed_private_names():
    # a private name imported across modules is a decision made in two
    # places: the command line reads the per-step runs, their stopping rule
    # and the power report only through the public step streams
    found = set()
    for path in sorted((ROOT / "src" / "cumvol").glob("*.py")):
        found |= private_imports(path.read_text(encoding="utf-8"), path.stem)
    assert found == SHARED_PRIVATE


def referenced_names(source: str) -> set:
    """Names that code loads, as a name or as an attribute, outside the
    ``def`` or ``class`` that defines them."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def test_reference_guard_skips_a_names_own_definition():
    source = ("def f():\n    return f()\n"
              "class C:\n    def m(self):\n        return C.m, g.h\n"
              "x = y\n")
    assert referenced_names(source) == {"g", "h", "y"}


def test_every_export_has_a_caller():
    # an export that only tests call is surface without a use: the package's
    # own code or the README's library quick start must reference it
    used = set()
    for path in sorted((ROOT / "src" / "cumvol").glob("*.py")):
        used |= referenced_names(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    used |= referenced_names(re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1))
    assert sorted(set(cumvol.__all__) - used) == []

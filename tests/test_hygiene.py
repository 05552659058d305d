"""Static checks that stand in for a linter: no import in the package or the
demos goes unused, every private module-level name of the package is
referenced somewhere in the package, and every name the package exports is
bound in ``__init__.py``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dmdsep").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree):
    """The strings of the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree):
    """Names the module reads, plus the strings its ``__all__`` exports."""
    names = set(_exports(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def unused_imports(tree):
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


def _references(tree):
    """Every name a module could use another's private name by: names it
    reads, attributes it takes and names it imports."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _definitions(tree):
    """Names the module's top-level definitions and assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in nodes if isinstance(t, ast.Name))


def _private_definitions(tree):
    for name in _definitions(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name


def unbound_exports(tree):
    """Strings of ``__all__`` that no top-level import or definition binds:
    ``from module import *`` fails on each of them."""
    bound = set(_definitions(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize(
    "path", PACKAGE + DEMOS, ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_private_module_names_are_referenced():
    trees = {path: _tree(path) for path in PACKAGE}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    unreferenced = [
        f"{path.name}:{name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    ]
    assert unreferenced == []


def test_package_exports_are_bound():
    assert unbound_exports(_tree(ROOT / "src" / "dmdsep" / "__init__.py")) == []


def test_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nnp.ones(1)\n_unused = 1\n")
    assert unused_imports(tree) == ["os"]
    assert list(_private_definitions(tree)) == ["_unused"]
    assert "_unused" not in _references(tree)
    # a name dropped from the imports but left in __all__
    tree = ast.parse("from os import sep\ndef f(): pass\n__all__ = ['f', 'path', 'sep']\n")
    assert unused_imports(tree) == []
    assert unbound_exports(tree) == ["path"]

"""Static checks that stand in for a linter: no import in the package or the
demos goes unused, and every private module-level name of the package is
referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dmdsep").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree):
    """Names the module reads, plus the strings its ``__all__`` exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
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


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        yield from (t for t in targets if t.startswith("_") and not t.startswith("__"))


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


def test_checks_catch_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nnp.ones(1)\n_unused = 1\n")
    assert unused_imports(tree) == ["os"]
    assert list(_private_definitions(tree)) == ["_unused"]
    assert "_unused" not in _references(tree)

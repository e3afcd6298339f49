"""Every name a package module imports is used there or re-exported, and
every private helper the package defines is referenced somewhere in it."""

import ast
from pathlib import Path

import pytest

import credalcones

MODULES = sorted(Path(credalcones.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nos.sep\n"
    assert unused_imports(source) == ["sys", "c"]
    assert unused_imports("import sys\n__all__ = ['sys']\n") == []


WARM_START = {"PrevisionBasis", "_atoms_basis", "_prevision_at_basis"}


def names_in(source: str) -> set[str]:
    """Every name, attribute and imported name the source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("lp.py", "cone.py")], ids=lambda p: p.name
)
def test_warm_start_bases_stay_in_lp_and_cone(path):
    # a local cone owns the optimal bases of its prevision LPs; lp starts
    # and walks them, and no other module reaches for them
    assert names_in(path.read_text()) & WARM_START == set()


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("lp.py", "__init__.py")], ids=lambda p: p.name
)
def test_coherence_and_every_other_lp_avoid_the_linear_system(path):
    # the package's LPs are lp's conic primitives and its prevision LP; the
    # LinearSystem front end is only defined in lp and re-exported
    assert "LinearSystem" not in names_in(path.read_text())


SIMPLEX = {
    "_Tableau",
    "_solve_standard",
    "conic_membership",
    "contains_zero",
    "_checked_prevision",
    "LinearSystem",
}


def test_the_oracle_has_no_simplex_inside():
    # fm_membership is an independent decider: it shares lp's integer-row
    # helpers, and nothing of the simplex or of the LPs built on it
    oracle = next(p for p in MODULES if p.name == "oracle.py")
    assert names_in(oracle.read_text()) & SIMPLEX == set()


def test_a_warm_start_reference_is_reported():
    assert names_in("from .lp import PrevisionBasis\nlp._prevision_at_basis(b)\n") == {
        "PrevisionBasis", "lp", "_prevision_at_basis", "b"
    }


def unreferenced_helpers(sources: list[str]) -> list[str]:
    """The `_`-prefixed functions and methods (dunders excepted) defined in
    `sources` that no ast.Name or ast.Attribute references outside their
    own definition."""
    trees = [ast.parse(source) for source in sources]
    refs = []
    for t, tree in enumerate(trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, t, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, t, node.lineno))
    unreferenced = []
    for t, tree in enumerate(trees):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(
                ref == name and (u != t or not node.lineno <= line <= node.end_lineno)
                for ref, u, line in refs
            ):
                unreferenced.append(name)
    return unreferenced


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers([path.read_text() for path in MODULES]) == []


def test_an_unreferenced_helper_is_reported():
    source = (
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class A:\n"
        "    def __init__(self):\n        self._called()\n"
        "    def _called(self):\n        pass\n"
        "    def _method(self):\n        pass\n"
    )
    assert unreferenced_helpers([source, "_used()\n"]) == ["_recursive", "_method"]
    assert unreferenced_helpers([source]) == ["_used", "_recursive", "_method"]

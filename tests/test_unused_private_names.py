"""Every module-level private function, class or constant of a library
module is referenced somewhere in the library.

A private name is one with a single leading underscore, bound at the top
level of a src/kineticlines/*.py module by def, class or assignment. When
the code that used one goes, the name would otherwise linger: no linter
runs in CI, and test_unused_imports only sees imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kineticlines"
MODULES = sorted(PACKAGE.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if is_private(name)}


def references(tree: ast.Module) -> set[str]:
    """The names the module reads, the attributes it reads, and the names
    it imports from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_private_name_is_referenced(path):
    parsed = trees()
    used = set().union(*(references(tree) for tree in parsed.values()))
    assert sorted(private_definitions(parsed[path.stem]) - used) == []


def test_check_sees_an_unreferenced_helper():
    # the check itself: a helper that nothing calls is reported, one that
    # is called, assigned or imported elsewhere is not
    tree = ast.parse(
        "_A = 1\n_B, _C = 2, 3\ndef _f(): return _A\nclass _K: pass\n"
        "def g(): return _f() + _C\n"
    )
    other = ast.parse("from .m import _K\n")
    used = references(tree) | references(other)
    assert private_definitions(tree) == {"_A", "_B", "_C", "_f", "_K"}
    assert private_definitions(tree) - used == {"_B"}

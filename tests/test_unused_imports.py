"""Every name a library module imports is used there, is in the module's
__all__, or is a module attribute that bench/tracing.py wraps.

No linter runs in CI, so this is the check that catches an import left
behind when the code that used it goes.
"""

import ast
from pathlib import Path

import pytest

from test_bench_wrap_points import wrap_points

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kineticlines"


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, but for star imports and
    __future__ features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return names


def listed_names(tree: ast.Module) -> set[str]:
    """The string constants of the module's __all__ assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_name = "kineticlines" if path.stem == "__init__" else f"kineticlines.{path.stem}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    listed = listed_names(tree)
    wrapped = {attr for module, attr, _ in wrap_points() if module == module_name}
    assert sorted(imported_names(tree) - used - listed - wrapped) == []

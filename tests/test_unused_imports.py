"""No module of the package imports a name it never uses.

No linter ships with the package's dependencies, so the check is a walk of
each module's syntax tree: a name bound by an import must be read somewhere
in the module, or be re-exported through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import spdcherald

MODULES = sorted(Path(spdcherald.__file__).parent.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, and the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"


def test_an_unused_import_is_found():
    tree = ast.parse("import threading\nfrom collections import OrderedDict as OD\nimport os.path\nos.sep\n")
    assert {name: line for name, line in imported_names(tree).items() if name not in used_names(tree)} == {
        "threading": 1,
        "OD": 2,
    }

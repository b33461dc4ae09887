"""No module of the package imports a name it never uses, and no private
module-level name of the package goes unread.

No linter ships with the package's dependencies, so the check is a walk of
each module's syntax tree: a name bound by an import must be read somewhere
in the module, or be re-exported through ``__all__``; a ``_name`` that a
module defines at its top level must be read by some module of the package,
so a helper whose last caller is gone is deleted with it.
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_name`` (not ``__dunder__``) bound at the module's top level, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    return {name: line for name, line in bound.items() if name.startswith("_") and not name.startswith("__")}


def bare_reads(tree: ast.Module) -> set[str]:
    """Names the module reads bare, as its own (``_name``)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def foreign_reads(tree: ast.Module) -> set[str]:
    """Names the module reads from other modules: ``module._name`` or ``from .module import _name``."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return attributes | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def orphans(sources: dict[str, str]) -> dict[str, int]:
    """``module:name`` -> line of each private top-level name that neither its
    own module nor another one reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    foreign = set().union(*map(foreign_reads, trees.values()))
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in bare_reads(tree) | foreign
    }


def test_every_private_name_is_read():
    assert orphans({path.name: path.read_text() for path in MODULES}) == {}, "private names no module reads (module:name: line)"


def test_an_orphan_is_found():
    sources = {
        "a.py": "_kept = 1\n_cache = {}\n\ndef _helper():\n    return _kept\n\ndef _orphan():\n    _cache[1] = 2\n",
        "b.py": "from . import a\n\nclass _Unread:\n    pass\n\n__all__ = ()\nprint(a._helper())\n",
        # a read of the same name in another module, bare, is not a read of a's
        "c.py": "from .a import _kept\n\ndef _orphan():\n    pass\n\n_Unread = _kept\n",
    }
    assert orphans(sources) == {"a.py:_orphan": 7, "b.py:_Unread": 3, "c.py:_orphan": 3, "c.py:_Unread": 6}

"""Every name a module under ``src/semint`` imports is used in it.

The check reads each module's syntax tree: an imported name counts as used
when it appears as a name anywhere in the module, or in the module's
``__all__``.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semint"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_the_package_has_modules():
    assert PACKAGE / "integral.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom typing import Sequence, Any\nimport numpy as np\nx: Any = np.pi\n")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name for name in imported_names(tree) if name not in used} == {"math", "Sequence"}

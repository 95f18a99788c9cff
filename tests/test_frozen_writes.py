"""Library code writes to a frozen object only while it builds that object.

``object.__setattr__`` is how a frozen dataclass sets a field.  The check
reads each module's syntax tree and allows the call only inside a function
that builds an object, a ``__post_init__`` or an ``_adopt``, and inside the
audits' one-entry memo, ``convergence._strict_hypothesis``.  Anywhere else it
would write into an object that a caller already holds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semint"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"__post_init__", "_adopt", "_strict_hypothesis"}


def frozen_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """Each ``object.__setattr__`` call, with the name of the function around it ("" at module level) and its line."""
    out = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            call = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(call, ast.Attribute)
                and call.attr == "__setattr__"
                and isinstance(call.value, ast.Name)
                and call.value.id == "object"
            ):
                out.append((function, child.lineno))
            visit(child, function)

    visit(tree, "")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_frozen_objects_are_written_only_while_they_are_built(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(function, line) for function, line in frozen_writes(tree) if function not in ALLOWED]
    assert not outside, f"{path.name}: object.__setattr__ outside {sorted(ALLOWED)}: {outside}"


def test_a_write_outside_a_builder_is_found():
    tree = ast.parse(
        "class F:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "def integrate(f):\n"
        "    if f.chain is None:\n"
        "        object.__setattr__(f, 'chain', [])\n"
        "    return [object.__setattr__(g, 'b', 2) for g in f.parts]\n"
        "object.__setattr__(F, 'c', 3)\n"
    )
    assert frozen_writes(tree) == [("__post_init__", 3), ("integrate", 6), ("integrate", 7), ("", 8)]

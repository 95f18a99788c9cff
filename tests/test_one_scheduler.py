"""Library code moves work onto a second thread in one place, ``capacity._on_two_threads``.

The check reads each module's syntax tree and allows a thread, a lock or a
queue (``threading.Thread``, ``threading.Condition``, ``threading.Lock`` and
the other ``threading`` primitives, anything from ``queue`` or
``concurrent.futures``) only inside that function.  A second scheduler
would bring a second copy of the thread start, the join and the hand-off of
the helper's exception.  The names that tell a thread apart
(``threading.get_ident``, ``threading.local`` and the like) are held to the
same place, so no work item can depend on which thread runs it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semint"
MODULES = sorted(PACKAGE.glob("*.py"))
SCHEDULER = "_on_two_threads"
PRIMITIVES = {"Thread", "Timer", "Condition", "Lock", "RLock", "Event", "Semaphore", "BoundedSemaphore", "Barrier"}
IDENTITIES = {"local", "get_ident", "get_native_id", "current_thread", "main_thread"}
MODULES_OF_THREADS = {"threading", "queue", "concurrent.futures"}


def thread_plumbing(tree: ast.Module) -> list[tuple[str, int]]:
    """Each use of a thread, a lock, a queue or a thread's identity, with the functions around it ("" at module
    level) and its line."""
    out = []

    def visit(node: ast.AST, functions: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, functions + (child.name,))
                continue
            if isinstance(child, ast.Attribute):
                owner = ast.unparse(child.value)
                found = owner in MODULES_OF_THREADS and (owner != "threading" or child.attr in PRIMITIVES | IDENTITIES)
            else:
                found = isinstance(child, ast.ImportFrom) and child.module in MODULES_OF_THREADS
            if found:
                out.append((".".join(functions), child.lineno))
            visit(child, functions)

    visit(tree, ())
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_threads_are_started_only_by_the_one_scheduler(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [(where, line) for where, line in thread_plumbing(tree) if SCHEDULER not in where.split(".")]
    assert not outside, f"{path.name}: a thread, a lock or a queue outside {SCHEDULER}: {outside}"


def test_the_scheduler_is_where_the_package_starts_its_thread():
    tree = ast.parse((PACKAGE / "capacity.py").read_text(encoding="utf-8"))
    assert {where for where, line in thread_plumbing(tree)} == {SCHEDULER}


def test_plumbing_outside_the_scheduler_is_found():
    tree = ast.parse(
        "import threading\n"
        "from queue import SimpleQueue\n"
        "def _on_two_threads(count, work):\n"
        "    tasks = queue.SimpleQueue()\n"
        "    def helper():\n"
        "        threading.Lock()\n"
        "    threading.Thread(target=helper).start()\n"
        "def _drawn_blocks(blocks):\n"
        "    ready = threading.Condition()\n"
        "    threading.active_count()\n"
        "    return concurrent.futures.ThreadPoolExecutor(2)\n"
        "def _walk(table, points):\n"
        "    firsts = {threading.get_ident(): points}\n"
        "    scratch = threading.local()\n"
    )
    assert thread_plumbing(tree) == [
        ("", 2),
        ("_on_two_threads", 4),
        ("_on_two_threads.helper", 6),
        ("_on_two_threads", 7),
        ("_drawn_blocks", 9),
        ("_drawn_blocks", 11),
        ("_walk", 13),
        ("_walk", 14),
    ]

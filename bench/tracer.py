"""Span tracing of semint's public functions, from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
(and the ``Capacity`` constructors, and the grid oracle's kernel
``integral._grid_profile``, which ``semint oracle`` calls directly) with a
wrapper that records a span, in every loaded module that holds a reference to
it, then restores the originals.  Spans stay in memory until ``write`` is
called.

A span record, one JSON object per line:

    {"id": 7, "parent": 3, "op": 12, "name": "integral.integrate",
     "start_ns": 1042, "end_ns": 1391,
     "sizes": {"n": 6, "subsets": 64, "candidates": 5}}

``parent`` is 0 for a span no other span encloses, ``op`` numbers the
benchmark op the span belongs to, times come from ``time.perf_counter_ns``.
``sizes`` holds whichever of ``n``, ``subsets`` (2**n), ``horizon``,
``grid_points``, ``candidates`` and ``cases`` the call's arguments or
result define.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from types import ModuleType

TRACED_MODULES = ("capacity", "measurable", "semicopula", "integral", "convergence", "cli")
CAPACITY_CONSTRUCTORS = ("from_table", "from_possibility", "from_additive", "from_distortion")
PRIVATE_KERNELS = (("integral", "_grid_profile"),)

# spans whose 2**n entries count as one table built
_TABLE_BUILDERS = ("capacity.from_table", "capacity.from_additive", "capacity.from_possibility")
_CLI_PARSERS = (
    "cli.parse_space",
    "cli.parse_capacity",
    "cli.parse_semicopula",
    "cli.parse_function",
    "cli.infer_capacity_space",
)


def _sizes(name: str, args: tuple, kwargs: dict, result) -> dict:
    sizes: dict = {}
    for x in (*args, *kwargs.values()):
        space = getattr(x, "space", x)
        size = getattr(space, "size", None)
        if isinstance(size, int) and type(space).__name__ == "FiniteSpace":
            sizes["n"] = size
            sizes["subsets"] = 1 << size
        terms = getattr(x, "terms", None)
        if isinstance(terms, tuple):
            sizes["horizon"] = len(terms)
    candidates = getattr(result, "candidates_inspected", None)
    if candidates is not None:
        sizes["candidates"] = candidates
    if name == "integral.integrate_grid_oracle":
        sizes["grid_points"] = kwargs.get("grid_points", args[3] if len(args) > 3 else None)
    elif name == "convergence.check_in_capacity" and result is not None:
        sizes["grid_points"] = len(result.per_t)
    elif name == "convergence.random_audit":
        sizes["cases"] = kwargs.get("cases", args[2] if len(args) > 2 else None)
    return sizes


class Tracer:
    """Collects spans from wrapped semint functions while installed."""

    def __init__(self, extra_namespaces: tuple[ModuleType, ...] = ()):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._extra = extra_namespaces

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack) + 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, self.op, name, start, end, _sizes(name, args, kwargs, result)))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        namespaces = [m for k, m in sys.modules.items() if k == "semint" or k.startswith("semint.")]
        namespaces.extend(self._extra)
        undo: list[tuple[object, str, object]] = []
        try:
            for short in TRACED_MODULES:
                module = sys.modules.get(f"semint.{short}")
                if module is None:
                    continue
                kernels = {attr for mod, attr in PRIVATE_KERNELS if mod == short}
                for attr, fn in list(vars(module).items()):
                    if attr.startswith("_") and attr not in kernels:
                        continue
                    if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                        continue
                    wrapper = self._wrap(f"{short}.{attr}", fn)
                    for ns in namespaces:
                        if ns.__dict__.get(attr) is fn:
                            undo.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
            capacity_cls = sys.modules["semint.capacity"].Capacity
            for attr in CAPACITY_CONSTRUCTORS:
                original = capacity_cls.__dict__[attr]
                undo.append((capacity_cls, attr, original))
                setattr(capacity_cls, attr, classmethod(self._wrap(f"capacity.{attr}", original.__func__)))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def fired(self) -> set[str]:
        return {span[3] for span in self.spans}

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "sizes")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")


def self_times_ns(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans nest and never overlap (one thread), so the children's durations add.
    """
    children = defaultdict(int)
    for span_id, parent, _op, _name, start, end, _sizes in spans:
        if parent:
            children[parent] += end - start
    return [end - start - children[span_id] for span_id, _p, _o, _n, start, end, _s in spans]


def _has_ancestor(by_id: dict, span: tuple, name: str) -> bool:
    parent = span[1]
    while parent:
        span = by_id[parent]
        if span[3] == name:
            return True
        parent = span[1]
    return False


def layer_metrics(spans: list[tuple], ops: int) -> dict[str, float]:
    """Per-op self times and counts for each traced layer, as named in BENCHMARK.json."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    table_entries = candidates = cells = cases = audit_strict_calls = 0
    by_id = {span[0]: span for span in spans}
    for span, own in zip(spans, self_times_ns(spans)):
        name, sizes = span[3], span[6]
        self_ms[name] += own / 1e6
        calls[name] += 1
        if name == "convergence.check_strict" and _has_ancestor(by_id, span, "convergence.random_audit"):
            audit_strict_calls += 1
        if name in _TABLE_BUILDERS:
            table_entries += sizes.get("subsets", 0)
        candidates += sizes.get("candidates", 0) if name == "integral.integrate" else 0
        if name == "convergence.check_in_capacity":
            cells += sizes.get("horizon", 0) * sizes.get("grid_points", 0) * sizes.get("n", 0)
        if name == "convergence.random_audit":
            cases += sizes.get("cases") or 0
    per_op = 1.0 / ops
    out = {
        f"{name}.self_ms": self_ms[name] * per_op
        for name in (
            "capacity.from_additive",
            "capacity.from_possibility",
            "capacity.random_capacity",
            "capacity.from_distortion",
            "capacity.from_table",
            "capacity.validate_table",
            "integral.integrate",
            "integral.integrate_grid_oracle",
            "measurable.residual",
            "convergence.check_strict",
            "convergence.check_in_capacity",
            "convergence.check_in_mean",
            "convergence.random_strict_sequence",
            "semicopula.validate_semicopula",
            "cli.canonical_json",
        )
    }
    out["capacity.table_entries"] = table_entries * per_op
    out["integral.integrate.calls"] = calls["integral.integrate"] * per_op
    out["integral.candidates_inspected"] = candidates * per_op
    out["measurable.residual.calls"] = calls["measurable.residual"] * per_op
    # the oracle's work, whether reached through integrate_grid_oracle or the CLI's direct kernel call
    out["integral.integrate_grid_oracle.self_ms"] += self_ms["integral._grid_profile"] * per_op
    out["convergence.check_strict.calls_per_case"] = audit_strict_calls / cases if cases else 0.0
    out["convergence.check_in_capacity.cells"] = cells * per_op
    out["cli.parse.self_ms"] = sum(self_ms[name] for name in _CLI_PARSERS) * per_op
    return out

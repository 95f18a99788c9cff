"""Command-line front end: JSON instance files in, JSON reports out, CSV sidecars on request.

Exit codes: 0 for success or a passing verdict, 1 for a failing verdict,
2 for input errors (malformed JSON, schema problems, violated input
invariants, bad flags) and for sizes too large to allocate (code
``memory``).  Reports go to stdout; exit-2 error objects
{"code", "message", "location"} go to stderr.  Numbers are serialized with
17 significant digits so reports round-trip losslessly and identical inputs
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from semint.capacity import Capacity, FiniteSpace, validate_table
from semint.convergence import (
    DEFAULT_EPSILON,
    FnSequence,
    _tail_start,
    check_in_capacity,
    check_in_mean,
    check_strict,
    counterexample_constant,
    random_audit,
    theorem1_audit,
    theorem2_audit,
)
from semint.errors import CapacityError, DomainError, SchemaError, SemintError
from semint.integral import _grid_profile, integrate
from semint.measurable import MeasurableFn
from semint.semicopula import BUILTIN_KINDS, BUILTINS, Semicopula, builtin, validate_semicopula

DEFAULT_ORACLE_POINTS = 100_000
DEFAULT_CHECK_RESOLUTION = 100
DEFAULT_HORIZON = 50


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    """17 significant digits; NaN and +-inf have no JSON spelling, so they are refused."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize the non-finite number {x!r} as JSON")
    return format(x, ".17g")


def canonical_json(doc) -> str:
    """Serialize with fixed key order, compact separators, 17-digit floats, one trailing newline."""
    parts: list[str] = []
    _emit(doc, parts)
    parts.append("\n")
    return "".join(parts)


def _emit(x, out: list[str]) -> None:
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
    elif isinstance(x, (float, np.floating)):
        out.append(_fmt_float(x))
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, dict):
        out.append("{")
        for i, (key, value) in enumerate(x.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(x, (list, tuple)):
        out.append("[")
        for i, value in enumerate(x):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")


def _print_report(doc) -> None:
    sys.stdout.write(canonical_json(doc))


def _print_error(code: str, message: str, location: str = "") -> None:
    sys.stderr.write(canonical_json({"code": code, "message": message, "location": location}))


def _write_csv(path: str, header: str, rows: Sequence[Sequence[str]]) -> None:
    # cells never contain commas or quotes, so plain joining is already valid CSV
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# instance parsing


_UNREADABLE = object()


class _JsonParseError(SchemaError):
    """The document is not JSON text the parser can read; ``location`` says where, if the parser knows."""

    code = "json-parse"


def _load_json(path: str):
    """Parse an instance document into schema errors where strict JSON or Python cannot read it.

    ``path`` is a file or ``-``, stdin, read as UTF-8 whatever the locale;
    text that is not UTF-8 or JSON, or nests past the recursion limit, is a
    ``json-parse`` error.  NaN, +-Infinity and integers longer than the
    interpreter's digit limit are reported at their JSON pointer.
    """
    rejected: list[str] = []

    def non_finite(name: str):
        rejected.append(f"non-finite number {name} is not valid JSON")
        return _UNREADABLE

    def integer(text: str):
        try:
            return int(text)
        except ValueError:
            rejected.append(f"integer literal of {len(text.lstrip('-'))} digits is too long to read")
            return _UNREADABLE

    try:
        with open(sys.stdin.fileno() if path == "-" else path, encoding="utf-8", closefd=path != "-") as fh:
            doc = json.load(fh, parse_constant=non_finite, parse_int=integer)
    except json.JSONDecodeError as e:
        raise _JsonParseError(str(e), f"line {e.lineno} column {e.colno}") from None
    except UnicodeDecodeError as e:
        raise _JsonParseError(f"document is not UTF-8 text ({e.reason})") from None
    except RecursionError:
        raise _JsonParseError("document nests arrays or objects too deeply to parse") from None
    if rejected:
        raise SchemaError(rejected[0], _pointer_to(doc, _UNREADABLE))
    return doc


def _pointer_to(doc, target) -> str:
    """JSON pointer of the first node (in document order) that is ``target``; "/" if there is none."""
    stack = [(doc, "")]
    while stack:
        node, loc = stack.pop()
        if node is target:
            return loc or "/"
        if isinstance(node, dict):
            children = list(node.items())
        elif isinstance(node, list):
            children = list(enumerate(node))
        else:
            continue
        stack.extend((value, f"{loc}/{key}") for key, value in reversed(children))
    return "/"


def _as_obj(x, loc: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"expected an object, got {type(x).__name__}", loc)
    return x


def _as_list(x, loc: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"expected an array, got {type(x).__name__}", loc)
    return x


def _as_int(x, loc: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"expected an integer, got {type(x).__name__}", loc)
    return x


def _as_num(x, loc: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"expected a number, got {type(x).__name__}", loc)
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(f"integer of {len(str(abs(x)))} digits is out of the range of a double", loc) from None


def _as_str(x, loc: str) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"expected a string, got {type(x).__name__}", loc)
    return x


def _get(obj: dict, key: str, loc: str):
    if key not in obj:
        raise SchemaError(f"missing required key {key!r}", loc)
    return obj[key]


def _num_list(x, loc: str) -> list[float]:
    items = _as_list(x, loc)
    if set(map(type, items)) == {float}:  # what _as_num returns for each: no item needs a location
        return items
    return [_as_num(v, f"{loc}/{i}") for i, v in enumerate(items)]


def _located(loc: str, build, *args, schema: bool = False):
    """``build(*args)``, with a library error it raises located at ``loc``, the node its arguments came from:
    as itself, or with ``schema`` (a size or position the library refuses) as a ``SchemaError``."""
    try:
        return build(*args)
    except SemintError as e:
        if schema:
            raise SchemaError(str(e), loc) from None
        e.location = loc
        raise


def parse_space(doc, loc: str) -> FiniteSpace:
    obj = _as_obj(doc, loc)
    return _located(f"{loc}/n", FiniteSpace, _as_int(_get(obj, "n", loc), f"{loc}/n"), schema=True)


def infer_capacity_space(doc, loc: str) -> FiniteSpace:
    """Point count implied by a capacity object alone, for space-less documents."""
    obj = _as_obj(doc, loc)
    kind = _as_str(_get(obj, "kind", loc), f"{loc}/kind")
    if kind == "table":
        return parse_space(obj, loc)
    if kind in ("possibility", "additive"):
        weights = _num_list(_get(obj, "weights", loc), f"{loc}/weights")
        return _located(f"{loc}/weights", FiniteSpace, len(weights), schema=True)
    if kind == "distortion":
        return infer_capacity_space(_get(obj, "base", loc), f"{loc}/base")
    raise SchemaError(f"unknown capacity kind {kind!r}", f"{loc}/kind")


def _table_values(obj: dict, space: FiniteSpace, loc: str) -> list[float]:
    """A table capacity's values: one per subset of ``space``, whose size a declared ``n`` must match."""
    if "n" in obj and _as_int(obj["n"], f"{loc}/n") != space.size:
        raise SchemaError(
            f"capacity declares n={obj['n']} but the space has {space.size} points",
            f"{loc}/n",
        )
    values = _num_list(_get(obj, "values", loc), f"{loc}/values")
    if len(values) != space.num_subsets:
        raise SchemaError(
            f"need {space.num_subsets} values for n={space.size}, got {len(values)}",
            f"{loc}/values",
        )
    return values


def parse_capacity(doc, space: FiniteSpace, loc: str) -> Capacity:
    obj = _as_obj(doc, loc)
    kind = _as_str(_get(obj, "kind", loc), f"{loc}/kind")
    if kind == "table":
        return _located(f"{loc}/values", Capacity.from_table, space, _table_values(obj, space, loc))
    if kind in ("possibility", "additive"):
        weights = _num_list(_get(obj, "weights", loc), f"{loc}/weights")
        if len(weights) != space.size:
            raise SchemaError(f"need {space.size} weights, got {len(weights)}", f"{loc}/weights")
        build = Capacity.from_possibility if kind == "possibility" else Capacity.from_additive
        return _located(f"{loc}/weights", build, space, weights)
    if kind == "distortion":
        base = parse_capacity(_get(obj, "base", loc), space, f"{loc}/base")
        return _located(f"{loc}/g", Capacity.from_distortion, base, _num_list(_get(obj, "g", loc), f"{loc}/g"))
    raise SchemaError(f"unknown capacity kind {kind!r}", f"{loc}/kind")


def parse_semicopula(doc, loc: str) -> Semicopula:
    obj = _as_obj(doc, loc)
    kind = _as_str(_get(obj, "kind", loc), f"{loc}/kind")
    if kind in BUILTIN_KINDS:
        return builtin(kind)
    if kind == "table":
        grid = _as_list(_get(obj, "grid", loc), f"{loc}/grid")
        rows = [_num_list(row, f"{loc}/grid/{i}") for i, row in enumerate(grid)]
        resolution = _as_int(obj["resolution"], f"{loc}/resolution") if "resolution" in obj else None
        return _located(f"{loc}/grid", Semicopula, "table", rows, resolution)
    raise SchemaError(f"unknown semicopula kind {kind!r}", f"{loc}/kind")


def _fn_values(x, space: FiniteSpace, loc: str) -> MeasurableFn:
    """The function over ``space`` whose value list ``x`` sits at ``loc``."""
    values = _num_list(x, loc)
    if len(values) != space.size:
        raise SchemaError(f"need {space.size} values, got {len(values)}", loc)
    return _located(loc, MeasurableFn, space, values)


def parse_function(doc, space: FiniteSpace, loc: str) -> MeasurableFn:
    obj = _as_obj(doc, loc)
    return _fn_values(_get(obj, "values", loc), space, f"{loc}/values")


def _parse_model(obj: dict) -> tuple[FiniteSpace, Capacity, Semicopula]:
    """The space, capacity and semicopula at the root of an instance, read in that order."""
    space = parse_space(_get(obj, "space", "/"), "/space")
    c = parse_capacity(_get(obj, "capacity", "/"), space, "/capacity")
    return space, c, parse_semicopula(_get(obj, "semicopula", "/"), "/semicopula")


def _parse_point_instance(doc) -> tuple[FiniteSpace, Capacity, Semicopula, MeasurableFn]:
    obj = _as_obj(doc, "/")
    space, c, s = _parse_model(obj)
    return space, c, s, parse_function(_get(obj, "function", "/"), space, "/function")


def _parse_params(doc, loc: str) -> dict:
    obj = _as_obj(doc, loc)
    out: dict = {}
    if "horizon" in obj:
        out["horizon"] = _as_int(obj["horizon"], f"{loc}/horizon")
    if "epsilon" in obj:
        eps = _as_num(obj["epsilon"], f"{loc}/epsilon")
        if not math.isfinite(eps) or eps < 0.0:
            raise SchemaError(f"epsilon must be finite and >= 0, got {eps!r}", f"{loc}/epsilon")
        out["epsilon"] = eps
    if "tail_start" in obj:
        out["tail_start"] = _as_int(obj["tail_start"], f"{loc}/tail_start")
    if "t_grid" in obj:
        grid = _num_list(obj["t_grid"], f"{loc}/t_grid")
        for i, t in enumerate(grid):
            if not 0.0 < t <= 1.0:
                raise SchemaError(f"t_grid entries must lie in (0,1], got {t!r}", f"{loc}/t_grid/{i}")
        if not grid:
            raise SchemaError("t_grid must be nonempty", f"{loc}/t_grid")
        out["t_grid"] = grid
    return out


def _parse_sequence(doc, space: FiniteSpace, params: dict, loc: str) -> FnSequence:
    obj = _as_obj(doc, loc)
    kind = _as_str(_get(obj, "kind", loc), f"{loc}/kind")
    if kind == "constant-rate":
        rate = _as_str(_get(obj, "rate", loc), f"{loc}/rate")
        horizon = params.get("horizon", DEFAULT_HORIZON)
        try:
            return counterexample_constant(space, rate, horizon)
        except DomainError as e:  # the horizon's bound check
            raise SchemaError(str(e), "/params/horizon") from None
        except SemintError as e:  # the rate's own errors
            e.location = f"{loc}/rate"
            raise
    if kind == "explicit":
        term_rows = _as_list(_get(obj, "terms", loc), f"{loc}/terms")
        if not term_rows:
            raise SchemaError("terms must be nonempty", f"{loc}/terms")
        terms = [_fn_values(row, space, f"{loc}/terms/{i}") for i, row in enumerate(term_rows)]
        limit = _fn_values(_get(obj, "limit", loc), space, f"{loc}/limit")
        if "horizon" in params and params["horizon"] != len(terms):
            raise SchemaError(
                f"params.horizon={params['horizon']} but the sequence has {len(terms)} terms",
                "/params/horizon",
            )
        return FnSequence(space, tuple(terms), limit, provenance="explicit")
    raise SchemaError(f"unknown sequence kind {kind!r}", f"{loc}/kind")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_integrate(args) -> int:
    _, c, s, f = _parse_point_instance(_load_json(args.instance))
    _print_report(integrate(s, c, f).to_json_dict())
    return 0


def _cmd_oracle(args) -> int:
    _, c, s, f = _parse_point_instance(_load_json(args.instance))
    value, argmax_t = _grid_profile(s, c, f, args.grid_points)
    _print_report({"value": value, "argmax_t": argmax_t, "method": "grid", "grid_points": args.grid_points})
    return 0


def _cmd_check_semicopula(args) -> int:
    doc = _as_obj(_load_json(args.path), "/")
    if "semicopula" in doc and "kind" not in doc:
        s = parse_semicopula(doc["semicopula"], "/semicopula")
    else:
        s = parse_semicopula(doc, "")  # the root pointer, so that child locations read /kind, not //kind
    report = validate_semicopula(s, args.resolution)
    _print_report(report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_check_capacity(args) -> int:
    doc = _as_obj(_load_json(args.path), "/")
    if "capacity" in doc and "kind" not in doc:
        inner, loc = _as_obj(doc["capacity"], "/capacity"), "/capacity"
        space = parse_space(doc["space"], "/space") if "space" in doc else infer_capacity_space(inner, loc)
    else:
        inner, loc = doc, ""  # the root pointer, as in _cmd_check_semicopula
        space = infer_capacity_space(inner, loc)
    kind = _as_str(_get(inner, "kind", loc), f"{loc}/kind")

    if kind == "table":
        violations = [v.to_json_dict() for v in validate_table(space, _table_values(inner, space, loc))]
    else:
        try:
            parse_capacity(inner, space, loc)
            violations = []
        except (CapacityError, DomainError) as e:
            violations = [{"kind": e.code, "message": str(e)}]

    valid = not violations
    _print_report({"valid": valid, "n": space.size, "kind": kind, "violations": violations})
    return 0 if valid else 1


def _cmd_converge(args) -> int:
    obj = _as_obj(_load_json(args.instance), "/")
    space, c, s = _parse_model(obj)
    params = _parse_params(obj.get("params", {}), "/params")
    seq = _parse_sequence(_get(obj, "sequence", "/"), space, params, "/sequence")

    epsilon = params.get("epsilon", DEFAULT_EPSILON)
    tail_start = _located("/params/tail_start", _tail_start, seq.horizon, params.get("tail_start"), schema=True)
    t_grid = params.get("t_grid")
    rep_cap = check_in_capacity(c, seq, t_grid, epsilon, tail_start)
    rep_strict = check_strict(c, seq, epsilon, tail_start)
    rep_mean = check_in_mean(s, c, seq, epsilon, tail_start)
    all_pass = all(r.verdict == "pass" for r in (rep_cap, rep_strict, rep_mean))

    # the table first: a path that cannot be written fails the run before any report is printed
    if args.csv:
        rows = [
            [str(n + 1), _fmt_float(rep_strict.per_n[n]), _fmt_float(rep_mean.per_n[n]), _fmt_float(rep_cap.per_n[n])]
            for n in range(seq.horizon)
        ]
        _write_csv(args.csv, "n,strict_value,mean_value,survival_at_t_min", rows)
    _print_report(
        {
            "horizon": seq.horizon,
            "epsilon": epsilon,
            "tail_start": rep_strict.tail_start,
            "provenance": seq.provenance,
            "all_pass": all_pass,
            "in_capacity": rep_cap.to_json_dict(),
            "strict": rep_strict.to_json_dict(),
            "in_mean": rep_mean.to_json_dict(),
        }
    )
    return 0 if all_pass else 1


def _cmd_counterexample(args) -> int:
    space = FiniteSpace(args.space_size)
    c = Capacity.from_additive(space, [1.0 / args.space_size] * args.space_size)
    seq = counterexample_constant(space, args.rate, args.horizon)
    tail_start = _tail_start(seq.horizon, args.tail_start)
    # the largest residual the tail still shows; the demo's grid/epsilon must sit above it
    tail_residual = float(seq.residual_matrix()[tail_start - 1 :].max())

    doc: dict = {
        "theorem": args.theorem,
        "rate": args.rate,
        "space_n": space.size,
        "horizon": seq.horizon,
        "tail_start": tail_start,
        "provenance": seq.provenance,
    }
    if args.theorem == 1:
        epsilon = args.epsilon if args.epsilon is not None else DEFAULT_EPSILON
        t_grid = np.linspace(tail_residual, 1.0, 101)[1:]
        report = theorem1_audit(c, seq, t_grid=t_grid, epsilon=epsilon, tail_start=tail_start)
    else:
        s = builtin(args.semicopula)
        epsilon = args.epsilon if args.epsilon is not None else tail_residual
        doc["semicopula"] = s.kind
        report = theorem2_audit(s, c, seq, epsilon=epsilon, tail_start=tail_start)

    demonstrates = (
        report.consistent
        and report.hypothesis.verdict == "fail"
        and report.conclusion.verdict == "pass"
    )
    doc["epsilon"] = epsilon
    doc["demonstrates_gap"] = demonstrates
    doc["report"] = report.to_json_dict()
    _print_report(doc)
    return 0 if demonstrates else 1


def _cmd_audit(args) -> int:
    space = FiniteSpace(args.space_size)
    batches = random_audit(space, BUILTINS, args.cases, args.seed, horizon=args.horizon)

    rows = []
    pair_counts: dict[str, int] = {}
    violations = 0
    labels = ("-",) + BUILTIN_KINDS  # the claim-1 report, then one claim-2 report per builtin
    for case, batch in enumerate(batches):
        for label, report in zip(labels, batch):
            rows.append(
                [
                    str(case),
                    str(report.theorem),
                    label,
                    report.hypothesis.verdict,
                    report.conclusion.verdict,
                    "1" if report.violation else "0",
                ]
            )
            pair = f"{report.hypothesis.verdict}/{report.conclusion.verdict}"
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
            violations += report.violation

    # the table first, as in _cmd_converge
    if args.csv:
        _write_csv(
            args.csv,
            "case,theorem,semicopula,hypothesis_verdict,conclusion_verdict,violation",
            rows,
        )
    _print_report(
        {
            "cases": args.cases,
            "seed": args.seed,
            "space_n": space.size,
            "horizon": args.horizon,
            "theorem2_semicopulas": list(BUILTIN_KINDS),
            "audits": len(rows),
            "violations": violations,
            "all_consistent": violations == 0,
            "verdict_pairs": {k: pair_counts[k] for k in sorted(pair_counts)},
        }
    )
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------------------
# parser and entry points


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # structured usage errors, exit 2
        _print_error("usage", message, "argv")
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("integrate", help="exact seminormed integral of a JSON instance")
    p.add_argument("instance", help="instance file with space, capacity, semicopula, function")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("oracle", help="grid lower bound of the same integral")
    p.add_argument("instance")
    p.add_argument("--grid-points", type=int, default=DEFAULT_ORACLE_POINTS)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("check-semicopula", help="scan a semicopula for axiom violations")
    p.add_argument("path", help="semicopula JSON, bare or under a 'semicopula' key")
    p.add_argument("--resolution", type=int, default=DEFAULT_CHECK_RESOLUTION)
    p.set_defaults(handler=_cmd_check_semicopula)

    p = sub.add_parser("check-capacity", help="validate a capacity document")
    p.add_argument("path", help="capacity JSON, bare or under a 'capacity' key")
    p.set_defaults(handler=_cmd_check_capacity)

    p = sub.add_parser("converge", help="all three convergence mode checks for a sequence instance")
    p.add_argument("instance", help="instance file with space, capacity, semicopula, sequence, params")
    p.add_argument("--csv", help="write a per-term table to this path")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser(
        "counterexample",
        help="run the constant-sequence construction showing the implications do not reverse",
    )
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--rate", default="1/n", help="1/n, 1/2^n or 1/log(n+2)")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--space-size", type=int, default=4)
    p.add_argument("--semicopula", choices=BUILTIN_KINDS, default="min", help="used by --theorem 2")
    p.add_argument("--epsilon", type=float, default=None, help="default: largest tail residual (claim 2) or 1e-9 (claim 1)")
    p.add_argument("--tail-start", type=int, default=None)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("audit", help="randomized implication audits over seeded capacities and sequences")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space-size", type=int, default=4)
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--csv", help="write one row per audit to this path")
    p.set_defaults(handler=_cmd_audit)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except SemintError as e:
        _print_error(e.code, str(e), getattr(e, "location", ""))
        return 2
    except OSError as e:
        _print_error("io", str(e), getattr(e, "filename", None) or "")
        return 2
    except MemoryError as e:  # numpy refuses an allocation, say for a huge --grid-points or --resolution
        _print_error("memory", str(e) or "out of memory")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

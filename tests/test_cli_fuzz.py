"""One hypothesis property over every subcommand: whatever the document and the int flags, the CLI answers in JSON.

``cli.run`` runs in process with stdout and stderr captured, on documents
that range from valid instances to arbitrary JSON (NaN and +-Infinity text,
huge and 400-digit integers, wrong types and nesting) and text that is not
JSON.  The exit code is 0, 1 or 2, ``run`` raises nothing, stdout is empty
or one strict-JSON document, and stderr is empty or one strict-JSON error
object, on stderr exactly when the code is 2.

Sizes stay small so that no run allocates much: ``n`` and ``--space-size``
are at most 6, and every other int flag and params value is at most 50 or
huge.  A huge horizon, in params or a flag, must be refused by the
generators' ``MAX_HORIZON`` bound before any term is built, a huge
``--cases`` by ``MAX_CASES`` before any case runs, and a huge
``--grid-points`` or ``--resolution`` by ``MAX_GRID_POINTS`` or
``MAX_RESOLUTION`` before the grid is allocated.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from semint import cli

HUGE_INTS = st.sampled_from([2**63, -(2**63) - 1, 10**399, -(10**399)])
SMALL_INTS = st.integers(-2, 50)
EDGE_UNITS = [0.0, -0.0, 5e-324, 0.25, 0.5, 1 - 2**-53, 1.0]
numbers = st.one_of(SMALL_INTS, HUGE_INTS, st.floats())  # st.floats() draws NaN and +-inf too
valid_units = st.sampled_from(EDGE_UNITS) | st.floats(0.0, 1.0)
KINDS = ["table", "additive", "possibility", "distortion", "min", "product", "prodmax", "lukasiewicz", "explicit",
         "constant-rate"]
# each key the CLI reads
KEYS = st.sampled_from(["n", "kind", "values", "weights", "base", "g", "grid", "resolution", "space", "capacity",
                        "semicopula", "function", "sequence", "params", "terms", "limit", "rate", "epsilon",
                        "horizon", "tail_start", "t_grid"]) | st.text(max_size=3)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.sampled_from(KINDS), st.text(max_size=4))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12
)


def often(valid, other):
    """``valid`` seven times in eight, else ``other``."""
    return st.sampled_from(range(8)).flatmap(lambda k: other if k == 7 else valid)


def unit_lists(size: int):
    """``size`` numbers in [0,1], often; else a list of another length or with a number outside [0,1], NaN included."""
    return often(
        st.lists(valid_units, min_size=size, max_size=size),
        st.lists(valid_units, max_size=size + 1) | st.lists(valid_units | numbers, min_size=size, max_size=size),
    )


def monotone(values: list) -> list:
    """``values`` made a normalized capacity table: 0 and 1 at the ends, each entry raised to its subsets' maximum."""
    table = [0.0, *values[1:-1], 1.0]
    for a in range(len(table)):
        table[a] = max([table[a]] + [table[a & ~(1 << i)] for i in range(a.bit_length()) if a >> i & 1])
    return table


def with_a_one(values: list) -> list:
    return [1.0, *values[1:]]


def capacities(size: int):
    additive = st.sampled_from([[1 / size] * size, [1.0] + [0.0] * (size - 1)])
    unit_list = st.lists(valid_units, min_size=size, max_size=size)
    return often(
        st.fixed_dictionaries(
            {"kind": st.just("table"),
             "values": often(st.lists(valid_units, min_size=1 << size, max_size=1 << size).map(monotone),
                             unit_lists(1 << size))},
            optional={"n": often(st.just(size), SMALL_INTS)},
        )
        | st.fixed_dictionaries({"kind": st.just("additive"), "weights": often(additive, unit_lists(size))})
        | st.fixed_dictionaries({"kind": st.just("possibility"), "weights": often(unit_list.map(with_a_one),
                                                                                  unit_lists(size))})
        | st.fixed_dictionaries(
            {"kind": st.just("distortion"), "base": st.just({"kind": "additive", "weights": [1 / size] * size}),
             "g": often(st.lists(valid_units, max_size=3).map(lambda g: [0.0, *sorted(g), 1.0]),
                        st.lists(valid_units, max_size=5))}
        ),
        json_values,
    )


def semicopulas():
    table = often(st.integers(2, 4), st.integers(0, 1)).flatmap(
        lambda side: st.fixed_dictionaries(
            {"kind": st.just("table"), "grid": st.lists(unit_lists(side), min_size=side, max_size=side)},
            optional={"resolution": often(st.just(side - 1), SMALL_INTS)},
        )
    )
    builtin = st.fixed_dictionaries({"kind": st.sampled_from(["min", "product", "prodmax", "lukasiewicz"])})
    return often(builtin | table, st.fixed_dictionaries({"kind": st.sampled_from(KINDS)}) | json_values)


def sequences(size: int):
    explicit = st.fixed_dictionaries(
        {"kind": st.just("explicit"), "terms": often(st.lists(unit_lists(size), min_size=1, max_size=6), st.just([])),
         "limit": unit_lists(size)}
    )
    rate = st.fixed_dictionaries({"kind": st.just("constant-rate"), "rate": st.sampled_from(["1/n", "1/2^n", "x"])})
    params = st.fixed_dictionaries(
        {},
        optional={"horizon": SMALL_INTS | HUGE_INTS, "epsilon": often(valid_units, numbers),
                  "tail_start": often(st.integers(1, 6), SMALL_INTS | HUGE_INTS),
                  "t_grid": often(st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=4), st.lists(numbers, max_size=4))},
    )
    return st.tuples(often(explicit | rate, json_values), often(params, json_values))


@st.composite
def documents(draw, command: str) -> str:
    """The text of a document for ``command``: mostly near-valid, else arbitrary JSON or text that is not JSON."""
    n = draw(often(st.sampled_from([1, 2, 3, 6]), st.sampled_from([-1, 0])))
    size = max(n, 1)
    capacity = draw(capacities(size))
    if command == "check-capacity":
        doc = draw(st.sampled_from([capacity, {"capacity": capacity}, {"space": {"n": n}, "capacity": capacity}]))
    elif command == "check-semicopula":
        semicopula = draw(semicopulas())
        doc = draw(st.sampled_from([semicopula, {"semicopula": semicopula}]))
    else:
        doc = {"space": {"n": n}, "capacity": capacity, "semicopula": draw(semicopulas())}
        if command == "converge":
            doc["sequence"], doc["params"] = draw(sequences(size))
        else:
            doc["function"] = {"values": draw(unit_lists(size))}
        doc.pop(draw(often(st.none(), st.sampled_from(list(doc)))), None)
    text = json.dumps(draw(often(st.just(doc), json_values)))  # NaN and Infinity as JavaScript text
    return draw(often(st.just(text), st.sampled_from([text[: len(text) // 2], "[" * 5000 + "]" * 5000, "\ufeff{}"])))


def flag(name: str, values):
    """``[name, value]`` or no flag; hypothesis starts from the first choice of each, so from the flag set to its first value."""
    return st.one_of(values.map(lambda v: [name, str(v)]), st.just([]))


SIZES = st.sampled_from([-2, -1, 0, 1, 2, 50])
HORIZONS = st.sampled_from([-2, -1, 0, 1, 2, 50, 2**63, 10**399])
FLAGS = {
    "integrate": [],
    "oracle": [flag("--grid-points", SIZES | HUGE_INTS)],
    "check-semicopula": [flag("--resolution", SIZES | HUGE_INTS)],
    "check-capacity": [],
    "converge": [],
    "counterexample": [
        flag("--theorem", st.sampled_from([0, 1, 2])),
        flag("--rate", st.sampled_from(["1/n", "1/log(n+2)", "x"])),
        flag("--horizon", HORIZONS),
        flag("--space-size", st.sampled_from([-1, 0, 1, 2, 6])),
        flag("--semicopula", st.sampled_from(["min", "lukasiewicz", "max"])),
        flag("--epsilon", st.sampled_from(["0", "-1", "nan", "inf", "1e-9"])),
        flag("--tail-start", SIZES),
    ],
    "audit": [
        flag("--cases", st.sampled_from([-1, 0, 1, 2]) | HUGE_INTS),
        flag("--seed", st.sampled_from([-1, 0, 7])),
        flag("--space-size", st.sampled_from([-1, 0, 1, 6])),
        flag("--horizon", HORIZONS),
    ],
}


def strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-finite {name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_subcommand_answers_any_input_with_an_exit_code_and_strict_json(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    argv = [command]
    if command not in ("counterexample", "audit"):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(data.draw(documents(command), label="document"), encoding="utf-8")
        argv.append(str(path))
    for flags in FLAGS[command]:
        argv += data.draw(flags)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == (out.getvalue() == "") == (err.getvalue() != "")
    if out.getvalue():
        strict_json(out.getvalue())
    if err.getvalue():
        assert set(strict_json(err.getvalue())) == {"code", "message", "location"}

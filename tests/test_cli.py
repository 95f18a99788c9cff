import json
import math
import subprocess
import sys

import numpy as np
import pytest

from semint import DomainError, cli
from semint.cli import _parse_point_instance, canonical_json
from semint.integral import IntegralResult, _grid_profile

INSTANCE = {
    "space": {"n": 4},
    "capacity": {"kind": "additive", "weights": [0.25, 0.25, 0.25, 0.25]},
    "semicopula": {"kind": "min"},
    "function": {"values": [0.25, 0.5, 0.75, 1.0]},
}


def run_cli(*args, stdin: bytes | None = None):
    return subprocess.run(
        [sys.executable, "-m", "semint", *args],
        input=stdin,
        capture_output=True,
        timeout=120,
    )


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def error_of(proc) -> dict:
    err = json.loads(proc.stderr)
    assert set(err) == {"code", "message", "location"}
    return err


# ---------------------------------------------------------------------------
# integrate / oracle


# a value tie: the thresholds 0.5 and 0.2 both reach 0.2, and the smaller one must win
TIE = {
    "space": {"n": 3},
    "capacity": {"kind": "table", "values": [0.0, 0.2, 0.1, 0.2, 0.1, 0.4, 0.5, 1.0]},
    "semicopula": {"kind": "min"},
    "function": {"values": [0.5, 0.5, 0.2]},
}

GOLDEN = [
    (INSTANCE, b'{"value":0.5,"argmax_t":0.5,"method":"exact","candidates_inspected":4}\n'),
    (TIE, b'{"value":0.20000000000000001,"argmax_t":0.20000000000000001,"method":"exact","candidates_inspected":2}\n'),
]


def test_integrate_golden_bytes(tmp_path):
    for doc, report in GOLDEN:
        proc = run_cli("integrate", write(tmp_path, "i.json", doc))
        assert proc.returncode == 0
        assert proc.stdout == report
        assert proc.stderr == b""


def test_integrate_reads_stdin(tmp_path):
    proc = run_cli("integrate", "-", stdin=json.dumps(INSTANCE).encode())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.5


def test_integrate_all_capacity_kinds(tmp_path):
    table = {"n": 2, "kind": "table", "values": [0.0, 0.6, 0.4, 1.0]}
    poss = {"kind": "possibility", "weights": [1.0, 0.3]}
    dist = {"kind": "distortion", "base": table, "g": [0.0, 0.25, 1.0]}
    for cap in (table, poss, dist):
        doc = {
            "space": {"n": 2},
            "capacity": cap,
            "semicopula": {"kind": "product"},
            "function": {"values": [0.5, 0.9]},
        }
        proc = run_cli("integrate", write(tmp_path, "k.json", doc))
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert 0.0 <= out["value"] <= 1.0 and out["method"] == "exact"


def test_integrate_table_semicopula(tmp_path):
    grid = [[min(i, j) / 4 for j in range(5)] for i in range(5)]
    doc = dict(INSTANCE, semicopula={"kind": "table", "resolution": 4, "grid": grid})
    proc = run_cli("integrate", write(tmp_path, "t.json", doc))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.5, abs=1e-12)


def test_oracle_lower_bounds_exact(tmp_path):
    path = write(tmp_path, "i.json", INSTANCE)
    exact = json.loads(run_cli("integrate", path).stdout)
    proc = run_cli("oracle", path, "--grid-points", "100001")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["method"] == "grid" and out["grid_points"] == 100001
    assert 0.0 <= exact["value"] - out["value"] <= 5e-4
    assert out["value"] == pytest.approx(0.5, abs=1e-5)


def test_oracle_reports_the_grid_profile(tmp_path):
    values = np.random.default_rng(8).random(4).tolist()
    for kind in ("min", "product", "prodmax", "lukasiewicz"):
        doc = dict(INSTANCE, semicopula={"kind": kind}, function={"values": values})
        proc = run_cli("oracle", write(tmp_path, "i.json", doc), "--grid-points", "999")
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        _, c, s, f = _parse_point_instance(doc)
        assert (out["value"], out["argmax_t"]) == _grid_profile(s, c, f, 999)


def test_oracle_rejects_tiny_grid(tmp_path):
    proc = run_cli("oracle", write(tmp_path, "i.json", INSTANCE), "--grid-points", "1")
    assert proc.returncode == 2
    assert error_of(proc)["code"] == "domain"


def memory_error_of(capsys) -> dict:
    """The stderr error object of a run that exited 2 for a refused allocation, with nothing on stdout."""
    out, err = capsys.readouterr()
    assert out == ""
    doc = json.loads(err)  # one JSON object, no traceback
    assert set(doc) == {"code", "message", "location"} and doc["code"] == "memory"
    return doc


def test_an_oracle_grid_too_large_to_allocate_exits_two(tmp_path, capsys):
    # 10**15 float64 grid points take 7.1 PiB, far more than a process can map, so numpy's allocation is
    # refused before any memory is touched
    assert cli.run(["oracle", write(tmp_path, "i.json", INSTANCE), "--grid-points", str(10**15)]) == 2
    assert "Unable to allocate" in memory_error_of(capsys)["message"]


def test_a_semicopula_check_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def refuse(s, resolution):
        raise MemoryError

    monkeypatch.setattr(cli, "validate_semicopula", refuse)
    assert cli.run(["check-semicopula", write(tmp_path, "s.json", {"kind": "min"}), "--resolution", "100"]) == 2
    assert memory_error_of(capsys) == {"code": "memory", "message": "out of memory", "location": ""}


# ---------------------------------------------------------------------------
# validators


def test_check_semicopula_builtin_passes():
    proc = run_cli("check-semicopula", "-", stdin=b'{"kind":"lukasiewicz"}')
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["passed"] is True and out["violation_count"] == 0


def test_check_semicopula_midpoint_fails():
    grid = [[(i + j) / 8 for j in range(5)] for i in range(5)]
    doc = {"kind": "table", "resolution": 4, "grid": grid}
    proc = run_cli("check-semicopula", "-", "--resolution", "8", stdin=json.dumps(doc).encode())
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["passed"] is False and out["violation_count"] > 0
    axioms = {v["axiom"] for v in out["violations"]}
    assert axioms & {"neutral-right", "neutral-left"}


def test_check_semicopula_wrapped_document():
    proc = run_cli("check-semicopula", "-", stdin=b'{"semicopula":{"kind":"min"}}')
    assert proc.returncode == 0


def test_check_capacity_not_normalized_exits_one():
    doc = {"n": 2, "kind": "table", "values": [0, 0.6, 0.4, 0.5]}
    proc = run_cli("check-capacity", "-", stdin=json.dumps(doc).encode())
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["valid"] is False
    assert any(v["kind"] == "not-normalized" for v in out["violations"])


def test_check_capacity_valid_kinds_exit_zero():
    for doc in (
        {"n": 2, "kind": "table", "values": [0, 0.6, 0.4, 1.0]},
        {"kind": "possibility", "weights": [0.2, 1.0, 0.5]},
        {"kind": "additive", "weights": [0.1, 0.2, 0.7]},
        {"kind": "distortion", "base": {"kind": "additive", "weights": [0.5, 0.5]}, "g": [0.0, 0.3, 1.0]},
        {"space": {"n": 1}, "capacity": {"kind": "table", "values": [0, 1], "n": 1}},
    ):
        proc = run_cli("check-capacity", "-", stdin=json.dumps(doc).encode())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["valid"] is True


def test_check_capacity_table_n_must_match_the_space():
    doc = {"space": {"n": 2}, "capacity": {"kind": "table", "n": 3, "values": [0, 0.5, 0.5, 1]}}
    proc = run_cli("check-capacity", "-", stdin=json.dumps(doc).encode())
    assert proc.returncode == 2 and proc.stdout == b""
    err = strict_json(proc.stderr)
    assert err["code"] == "schema" and err["location"] == "/capacity/n"


def test_check_capacity_lists_every_planted_violation_at_the_split_size(tmp_path, capsys):
    # n = 20 is the smallest table whose monotonicity passes split onto two threads (with two usable CPUs);
    # masks 0x1 and 0x2 in the lower half and the top point alone in the upper half each lie above all 19 of
    # their one-point supersets
    n = 20
    planted = (0x1, 0x2, 1 << (n - 1))
    values = [bin(mask).count("1") / n for mask in range(1 << n)]
    for mask in planted:
        values[mask] = 0.5
    assert cli.run(["check-capacity", write(tmp_path, "p.json", {"n": n, "kind": "table", "values": values})]) == 1
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert {v["kind"] for v in violations} == {"not-monotone"}
    pairs = [(v["mask"], v["element"]) for v in violations]
    assert sorted(pairs) == [(mask, i) for mask in planted for i in range(n) if not mask >> i & 1]


def test_check_capacity_constructor_violation_exits_one():
    doc = {"kind": "possibility", "weights": [0.4, 0.9]}
    proc = run_cli("check-capacity", "-", stdin=json.dumps(doc).encode())
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["violations"][0]["kind"] == "max-not-one"


# ---------------------------------------------------------------------------
# converge


def converge_instance(**params):
    return {
        "space": {"n": 4},
        "capacity": {"kind": "additive", "weights": [0.25, 0.25, 0.25, 0.25]},
        "semicopula": {"kind": "min"},
        "sequence": {"kind": "constant-rate", "rate": "1/n"},
        "params": params,
    }


def test_converge_constant_rate_report(tmp_path):
    doc = converge_instance(horizon=100, tail_start=51, epsilon=1 / 51, t_grid=[0.1, 0.5, 1.0])
    csv_path = tmp_path / "out.csv"
    proc = run_cli("converge", write(tmp_path, "c.json", doc), "--csv", str(csv_path))
    assert proc.returncode == 1  # strict mode fails, so not all three pass
    out = json.loads(proc.stdout)
    assert out["strict"]["verdict"] == "fail"
    assert out["in_capacity"]["verdict"] == "pass"
    assert out["in_mean"]["verdict"] == "pass"
    assert out["all_pass"] is False
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,strict_value,mean_value,survival_at_t_min"
    assert len(lines) == 101
    assert lines[1] == "1,1,1,1"
    assert lines[100].startswith("100,1,0.01")


def test_converge_explicit_sequence_passes(tmp_path):
    doc = {
        "space": {"n": 2},
        "capacity": {"kind": "additive", "weights": [0.5, 0.5]},
        "semicopula": {"kind": "product"},
        "sequence": {
            "kind": "explicit",
            "terms": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
            "limit": [0.5, 0.5],
        },
        "params": {"epsilon": 0.0},
    }
    proc = run_cli("converge", write(tmp_path, "e.json", doc))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


@pytest.mark.parametrize(
    "sequence, location",
    [
        ({"terms": [[0.1, 0.2], [0.3, "x"]], "limit": [0.0, 0.0]}, "/sequence/terms/1/1"),
        ({"terms": [[0.1, 0.2], 0.3], "limit": [0.0, 0.0]}, "/sequence/terms/1"),
        ({"terms": [[0.1, 0.2], [0.3, 1.5]], "limit": [0.0, 0.0]}, "/sequence/terms/1"),
        ({"terms": [[0.1, 0.2]], "limit": [0.0, 0.0, 0.0]}, "/sequence/limit"),
        ({"terms": [[0.1, 0.2]], "limit": [0.0, "x"]}, "/sequence/limit/1"),
        ({"terms": [[0.1, 0.2]], "limit": "x"}, "/sequence/limit"),
    ],
)
def test_errors_in_an_explicit_sequence_are_located_at_its_value_lists(tmp_path, capsys, sequence, location):
    doc = dict(INSTANCE, space={"n": 2}, capacity={"kind": "additive", "weights": [0.5, 0.5]})
    del doc["function"]
    doc["sequence"] = {"kind": "explicit", **sequence}
    assert cli.run(["converge", write(tmp_path, "s.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["location"] == location


def test_converge_horizon_mismatch_is_schema_error(tmp_path):
    doc = {
        "space": {"n": 1},
        "capacity": {"kind": "table", "values": [0, 1]},
        "semicopula": {"kind": "min"},
        "sequence": {"kind": "explicit", "terms": [[0.1]], "limit": [0.0]},
        "params": {"horizon": 5},
    }
    proc = run_cli("converge", write(tmp_path, "m.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "schema" and err["location"] == "/params/horizon"


@pytest.mark.parametrize(
    "terms, location, message",
    [
        ([[0.1]], "/params/horizon", "params.horizon=0 but the sequence has 1 terms"),
        ([[1.5]], "/sequence/terms/0", None),  # a bad term is reported before the horizon
    ],
)
def test_an_explicit_sequence_reports_a_zero_horizon_as_a_mismatch(tmp_path, capsys, terms, location, message):
    doc = {
        "space": {"n": 1},
        "capacity": {"kind": "table", "values": [0, 1]},
        "semicopula": {"kind": "min"},
        "sequence": {"kind": "explicit", "terms": terms, "limit": [0.0]},
        "params": {"horizon": 0},
    }
    assert cli.run(["converge", write(tmp_path, "z.json", doc)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["location"] == location and (message is None or err["message"] == message)


def test_converge_bad_t_grid_location(tmp_path):
    doc = converge_instance(t_grid=[0.5, 0.0])
    proc = run_cli("converge", write(tmp_path, "g.json", doc))
    assert proc.returncode == 2
    assert error_of(proc)["location"] == "/params/t_grid/1"


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite {name}")

    return json.loads(text, parse_constant=reject)


def test_converge_nan_epsilon_exits_two_with_strict_json(tmp_path):
    proc = run_cli("converge", write(tmp_path, "n.json", converge_instance(epsilon=float("nan"))))
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = strict_json(proc.stderr)
    assert err["code"] == "schema" and err["location"] == "/params/epsilon"


def test_non_finite_json_numbers_are_located_schema_errors(tmp_path):
    doc = dict(INSTANCE, function={"values": [0.25, float("-inf"), 0.75, 1.0]})
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    err = strict_json(proc.stderr)
    assert err["code"] == "schema" and err["location"] == "/function/values/1"
    huge = converge_instance()
    path = tmp_path / "h.json"
    path.write_text(json.dumps(huge)[:-2] + '"epsilon": 1e400}}')
    proc = run_cli("converge", str(path))
    assert proc.returncode == 2
    assert strict_json(proc.stderr)["location"] == "/params/epsilon"


def test_huge_json_integers_are_located_schema_errors(tmp_path):
    for digits in (401, 5000):  # past the range of a double; past Python's integer digit limit
        path = tmp_path / "h.json"
        path.write_text(json.dumps(INSTANCE).replace("0.5", "1" * digits))
        proc = run_cli("integrate", str(path))
        assert proc.returncode == 2 and proc.stdout == b""
        err = strict_json(proc.stderr)
        assert err["code"] == "schema" and err["location"] == "/function/values/1"


def test_converge_unknown_rate(tmp_path):
    doc = converge_instance()
    doc["sequence"]["rate"] = "1/sqrt(n)"
    proc = run_cli("converge", write(tmp_path, "r.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "bad-rate" and err["location"] == "/sequence/rate"


@pytest.mark.parametrize("params", [{}, {"horizon": 1}])
def test_converge_numeric_rate_is_a_located_schema_error(tmp_path, params):
    doc = converge_instance(**params)
    doc["sequence"]["rate"] = 0.5
    proc = run_cli("converge", write(tmp_path, "r.json", doc))
    assert proc.returncode == 2 and proc.stdout == b""
    err = error_of(proc)
    assert err["code"] == "schema" and err["location"] == "/sequence/rate"
    assert err["message"] == "expected a string, got float"


# ---------------------------------------------------------------------------
# counterexample / audit


def test_counterexample_theorem2_demonstrates_gap():
    proc = run_cli("counterexample", "--theorem", "2", "--rate", "1/n", "--horizon", "50")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["demonstrates_gap"] is True
    assert out["report"]["hypothesis"]["verdict"] == "fail"
    assert out["report"]["conclusion"]["mode"] == "in-mean"
    assert out["report"]["conclusion"]["verdict"] == "pass"


def test_counterexample_theorem1_demonstrates_gap():
    for rate in ("1/n", "1/2^n", "1/log(n+2)"):
        proc = run_cli("counterexample", "--theorem", "1", "--rate", rate)
        assert proc.returncode == 0, proc.stdout
        out = json.loads(proc.stdout)
        assert out["demonstrates_gap"] is True
        assert out["report"]["conclusion"]["mode"] == "in-capacity"


def test_counterexample_bad_rate_exits_two():
    proc = run_cli("counterexample", "--theorem", "1", "--rate", "bogus")
    assert proc.returncode == 2
    assert error_of(proc)["code"] == "bad-rate"


@pytest.mark.parametrize("theorem,epsilon", [("1", "nan"), ("2", "nan"), ("2", "inf"), ("1", "-1")])
def test_counterexample_bad_epsilon_exits_two_with_strict_json(theorem, epsilon):
    proc = run_cli("counterexample", "--theorem", theorem, f"--epsilon={epsilon}")
    assert proc.returncode == 2 and proc.stdout == b""
    assert strict_json(proc.stderr)["code"] == "domain"


def test_counterexample_tail_start_beyond_the_horizon_exits_two():
    proc = run_cli("counterexample", "--theorem", "1", "--tail-start", "99")
    assert proc.returncode == 2 and proc.stdout == b""
    err = strict_json(proc.stderr)
    assert err["code"] == "domain" and "1..50" in err["message"]


@pytest.mark.parametrize("tail_start", [0, 11])
def test_converge_tail_start_outside_the_horizon_is_located(tmp_path, tail_start):
    proc = run_cli("converge", write(tmp_path, "t.json", converge_instance(horizon=10, tail_start=tail_start)))
    assert proc.returncode == 2 and proc.stdout == b""
    err = strict_json(proc.stderr)
    assert err["code"] == "schema" and err["location"] == "/params/tail_start"


@pytest.mark.parametrize("horizon", [0, -3])
def test_converge_horizon_below_one_is_located(tmp_path, horizon):
    proc = run_cli("converge", write(tmp_path, "h.json", converge_instance(horizon=horizon)))
    assert proc.returncode == 2 and proc.stdout == b""
    err = strict_json(proc.stderr)
    assert err["code"] == "schema" and err["location"] == "/params/horizon"
    assert err["message"] == f"horizon must be in 1..100000, got {horizon}"


HUGE = 2**63


@pytest.mark.parametrize(
    "args, doc",
    [
        (("counterexample", "--theorem", "1", "--horizon", str(HUGE)), None),
        (("audit", "--cases", "1", "--horizon", str(HUGE)), None),
        (("converge", "-"), converge_instance(horizon=HUGE)),
    ],
    ids=["counterexample", "audit", "converge"],
)
def test_a_huge_horizon_is_refused_by_the_library_bound(args, doc):
    proc = run_cli(*args, stdin=None if doc is None else json.dumps(doc).encode())
    assert proc.returncode == 2 and proc.stdout == b""
    code, location = ("schema", "/params/horizon") if doc else ("domain", "")
    message = f"horizon must be in 1..100000, got {HUGE}"
    assert error_of(proc) == {"code": code, "message": message, "location": location}


def test_audit_negative_cases_exits_two():
    proc = run_cli("audit", "--cases", "-3")
    assert proc.returncode == 2 and proc.stdout == b""
    assert error_of(proc)["code"] == "domain"


@pytest.mark.parametrize(
    "args, message",
    [
        (("--cases", "1", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("--cases", "0", "--horizon", "0"), "horizon must be in 1..100000, got 0"),
        (("--cases", "10001"), "cases must be in 0..10000, got 10001"),
        (("--cases", "100000000000000000000"), "cases must be in 0..10000, got 100000000000000000000"),
    ],
    ids=["seed", "horizon-without-cases", "cases-past-max", "huge-cases"],
)
def test_audit_refuses_a_bad_seed_or_horizon_with_a_domain_error(args, message):
    proc = run_cli("audit", *args)
    assert proc.returncode == 2 and proc.stdout == b""
    assert error_of(proc) == {"code": "domain", "message": message, "location": ""}


def test_audit_clean_run(tmp_path):
    csv_path = tmp_path / "audit.csv"
    proc = run_cli("audit", "--cases", "20", "--seed", "1", "--csv", str(csv_path))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["violations"] == 0 and out["all_consistent"] is True
    assert out["audits"] == 20 * 5
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "case,theorem,semicopula,hypothesis_verdict,conclusion_verdict,violation"
    assert len(lines) == 1 + 20 * 5
    assert all(line.endswith(",0") for line in lines[1:])


@pytest.mark.parametrize(
    "args",
    [
        lambda tmp_path: ["converge", write(tmp_path, "c.json", converge_instance(horizon=10))],
        lambda tmp_path: ["audit", "--cases", "2"],
    ],
    ids=["converge", "audit"],
)
def test_a_csv_path_that_cannot_be_written_fails_the_run_before_any_report(tmp_path, capsys, args):
    csv_path = str(tmp_path / "missing" / "x.csv")
    assert cli.run([*args(tmp_path), "--csv", csv_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert set(err) == {"code", "message", "location"}
    assert (err["code"], err["location"]) == ("io", csv_path) and csv_path in err["message"]


# ---------------------------------------------------------------------------
# determinism and round-trips


def test_reports_are_byte_identical_across_runs(tmp_path):
    path = write(tmp_path, "i.json", INSTANCE)
    assert run_cli("integrate", path).stdout == run_cli("integrate", path).stdout
    a = run_cli("audit", "--cases", "10", "--seed", "7")
    b = run_cli("audit", "--cases", "10", "--seed", "7")
    assert a.stdout == b.stdout and a.stdout
    c = run_cli("audit", "--cases", "10", "--seed", "8")
    assert c.stdout != a.stdout


def test_audit_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("audit", "--cases", "5", "--seed", "3", "--csv", str(p1))
    run_cli("audit", "--cases", "5", "--seed", "3", "--csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_every_report_reparses_as_json(tmp_path):
    runs = [
        run_cli("integrate", write(tmp_path, "i.json", INSTANCE)),
        run_cli("oracle", write(tmp_path, "i.json", INSTANCE), "--grid-points", "101"),
        run_cli("check-semicopula", "-", stdin=b'{"kind":"min"}'),
        run_cli("check-capacity", "-", stdin=b'{"kind":"additive","weights":[1.0]}'),
        run_cli("converge", write(tmp_path, "c.json", converge_instance(horizon=10))),
        run_cli("counterexample", "--theorem", "2"),
        run_cli("audit", "--cases", "3"),
    ]
    for proc in runs:
        json.loads(proc.stdout)  # must parse cleanly


def test_canonical_json_formats_17_digits():
    assert canonical_json({"x": 1 / 3}) == '{"x":0.33333333333333331}\n'
    assert canonical_json([True, None, 3]) == "[true,null,3]\n"
    back = json.loads(canonical_json({"x": 0.1 + 0.2}))
    assert back["x"] == 0.1 + 0.2  # lossless round-trip


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
def test_canonical_json_refuses_non_finite_floats(bad):
    with pytest.raises(DomainError, match="non-finite"):
        canonical_json({"report": {"values": [0.5, bad]}})


def test_a_non_finite_report_value_exits_two_with_strict_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "integrate", lambda s, c, f: IntegralResult(math.nan, 0.5, 4))
    assert cli.run(["integrate", write(tmp_path, "i.json", INSTANCE)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert strict_json(err)["code"] == "domain"


# ---------------------------------------------------------------------------
# error contract


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"space":')
    proc = run_cli("integrate", str(path))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "json-parse" and "line" in err["location"]


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"space": {"n": 1}}', '{"space": {"n": "\u00e9"}}'.encode("latin-1"), b"[" * 100_000],
    ids=["utf16-bom", "latin-1", "deep"],
)
def test_unreadable_json_exits_two_with_one_error_object(tmp_path, content):
    # text that is not UTF-8 and nesting past the recursion limit, from a file and from stdin
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    for command in ("integrate", "check-semicopula"):
        for proc in (run_cli(command, str(path)), run_cli(command, "-", stdin=content)):
            assert proc.returncode == 2 and proc.stdout == b""
            assert b"Traceback" not in proc.stderr and proc.stderr.count(b"\n") == 1
            assert strict_json(proc.stderr)["code"] == "json-parse"


def test_missing_file_exits_two(tmp_path):
    proc = run_cli("integrate", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert error_of(proc)["code"] == "io"


def test_unknown_flag_exits_two(tmp_path):
    proc = run_cli("integrate", write(tmp_path, "i.json", INSTANCE), "--frobnicate")
    assert proc.returncode == 2
    assert error_of(proc)["code"] == "usage"


def test_unknown_subcommand_exits_two():
    proc = run_cli("bogus")
    assert proc.returncode == 2
    assert error_of(proc)["code"] == "usage"


def test_missing_key_has_location(tmp_path):
    doc = dict(INSTANCE)
    del doc["capacity"]
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "schema" and err["location"] == "/"


def test_invalid_capacity_inside_instance_exits_two(tmp_path):
    doc = dict(INSTANCE, capacity={"kind": "table", "values": [0, 0.6, 0.4, 0.5], "n": 2})
    doc["space"] = {"n": 2}
    doc["function"] = {"values": [0.5, 0.5]}
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "not-normalized" and err["location"] == "/capacity/values"


def test_function_length_mismatch_location(tmp_path):
    doc = dict(INSTANCE, function={"values": [0.5]})
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "schema" and err["location"] == "/function/values"


def test_capacity_n_cross_reference(tmp_path):
    doc = dict(INSTANCE, capacity={"kind": "table", "n": 2, "values": [0, 1, 1, 1]})
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    assert error_of(proc)["location"] == "/capacity/n"


def test_bad_semicopula_grid_location(tmp_path):
    doc = dict(INSTANCE, semicopula={"kind": "table", "grid": [[0.0, 0.5], [0.0, 1.5]]})
    proc = run_cli("integrate", write(tmp_path, "i.json", doc))
    assert proc.returncode == 2
    err = error_of(proc)
    assert err["code"] == "domain" and err["location"] == "/semicopula/grid"


def test_ragged_semicopula_grid_is_located_like_the_other_grid_errors(tmp_path):
    ragged = {"kind": "table", "grid": [[0, 0], [0]]}
    out_of_range = {"kind": "table", "grid": [[0, 0], [0, 2]]}
    runs = (
        ("integrate", lambda sc: dict(INSTANCE, semicopula=sc), "/semicopula/grid"),
        ("check-semicopula", lambda sc: {"semicopula": sc}, "/semicopula/grid"),
        ("check-semicopula", lambda sc: sc, "/grid"),
    )
    for command, doc, location in runs:
        proc = run_cli(command, write(tmp_path, "r.json", doc(ragged)))
        assert proc.returncode == 2 and proc.stdout == b""
        err = error_of(proc)
        assert err["code"] == "domain" and err["message"] == "table grid must be a regular array of numbers"
        assert err["location"] == location
        assert error_of(run_cli(command, write(tmp_path, "o.json", doc(out_of_range))))["location"] == location


@pytest.mark.parametrize(
    "command, doc, location",
    [
        ("check-semicopula", {"kind": "table", "grid": [[0, 0], [0, 2]]}, "/grid"),
        ("check-semicopula", {"kind": "table", "grid": [[0, 0], [0, "x"]]}, "/grid/1/1"),
        ("check-semicopula", {"kind": "nope"}, "/kind"),
        ("check-semicopula", {"grid": [[0, 0], [0, 1]]}, "/"),
        ("check-capacity", {"kind": "nope"}, "/kind"),
        ("check-capacity", {"kind": "table", "n": 2, "values": [0, 0.5, "x", 1]}, "/values/2"),
        ("check-capacity", {"kind": "table", "n": 2, "values": [0, 1]}, "/values"),
        ("check-capacity", {"kind": "additive", "weights": [0.5, "a"]}, "/weights/1"),
        ("check-capacity", {"kind": "table", "values": [0, 1]}, "/"),
    ],
)
def test_errors_in_a_bare_document_are_located_from_its_root(tmp_path, capsys, command, doc, location):
    assert cli.run([command, write(tmp_path, "d.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["location"] == location


def _pair_instance(capacity) -> dict:
    return dict(INSTANCE, space={"n": 2}, capacity=capacity, function={"values": [0.5, 0.5]})


def _distortion_of(base) -> dict:
    return {"kind": "distortion", "base": base, "g": [0.0, 1.0]}


@pytest.mark.parametrize(
    "command, doc, error",
    [
        ("integrate", dict(INSTANCE, space={"n": 0}), ("schema", "space size must be in 1..24, got 0", "/space/n")),
        (
            "integrate",
            _pair_instance({"kind": "additive", "weights": [0.5, 0.75]}),
            ("bad-weights", "additive weights sum to 1.25, expected 1 within 1e-9", "/capacity/weights"),
        ),
        (
            "integrate",
            _pair_instance({"kind": "possibility", "weights": [0.5, 0.75]}),
            ("max-not-one", "max weight is 0.75, expected exactly 1", "/capacity/weights"),
        ),
        (
            "integrate",
            _pair_instance({"kind": "distortion", "base": {"kind": "additive", "weights": [0.5, 0.5]}, "g": [0.0, 0.5]}),
            ("bad-distortion", "distortion endpoints are (0.0, 0.5), expected (0, 1)", "/capacity/g"),
        ),
        (
            "integrate",
            _pair_instance(_distortion_of({"kind": "additive", "weights": [0.5, 0.75]})),
            ("bad-weights", "additive weights sum to 1.25, expected 1 within 1e-9", "/capacity/base/weights"),
        ),
        (
            "integrate",
            _pair_instance(_distortion_of({"kind": "table", "values": [0.0, 0.5, 0.5, 0.75]})),
            ("not-normalized", "mu(X) = 0.75, expected 1 (1 violation(s) total)", "/capacity/base/values"),
        ),
        (
            "check-capacity",
            {"kind": "additive", "weights": []},
            ("schema", "space size must be in 1..24, got 0", "/weights"),
        ),
        (
            "check-capacity",
            _distortion_of({"kind": "possibility", "weights": []}),
            ("schema", "space size must be in 1..24, got 0", "/base/weights"),
        ),
    ],
)
def test_a_library_error_is_located_at_the_node_that_handed_it_the_value(tmp_path, capsys, command, doc, error):
    assert cli.run([command, write(tmp_path, "d.json", doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == dict(zip(("code", "message", "location"), error))


# ---------------------------------------------------------------------------
# number lists: all floats pass at once, anything else keeps its located check


def test_a_number_list_of_floats_is_returned_whole_and_any_other_item_keeps_its_location():
    floats = [k / 7.0 for k in range(70_000)]
    assert cli._num_list(floats, "/capacity/values") is floats
    for k in (0, 40_000, 69_999):
        for bad, message in (
            (True, "expected a number, got bool"),
            ("0.5", "expected a number, got str"),
            (10**400, "integer of 401 digits is out of the range of a double"),
        ):
            items = floats.copy()
            items[k] = bad
            with pytest.raises(cli.SchemaError) as err:
                cli._num_list(items, "/capacity/values")
            assert (str(err.value), err.value.location) == (message, f"/capacity/values/{k}")
        items = floats.copy()
        items[k] = 1  # an int is a number: read as a float, like every other item
        got = cli._num_list(items, "/capacity/values")
        assert got == [1.0 if i == k else v for i, v in enumerate(floats)] and type(got[k]) is float


def test_a_bad_item_deep_in_a_large_table_is_located_end_to_end(tmp_path, capsys):
    n = 16
    values = [bin(mask).count("1") / n for mask in range(1 << n)]
    values[40_000] = "x"
    assert cli.run(["check-capacity", write(tmp_path, "t.json", {"n": n, "kind": "table", "values": values})]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"code": "schema", "message": "expected a number, got str", "location": "/values/40000"}

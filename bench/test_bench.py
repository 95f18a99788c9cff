"""Tests of the benchmark's own reference computations, tracer and workloads.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import semint  # noqa: E402
from tracer import layer_metrics, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _additive_table(weights) -> np.ndarray:
    n = len(weights)
    return np.array([sum(w for i, w in enumerate(weights) if mask >> i & 1) for mask in range(1 << n)])


def test_reference_reproduces_the_readme_quickstart():
    table = _additive_table([0.25, 0.25, 0.25, 0.25])
    value, arg = ref.integrals("min", table, [0.25, 0.5, 0.75, 1.0])
    assert (value[0], arg[0]) == (0.5, 0.5)


# mu over masks of {0, 1, 2}: {}, {0}, {1}, {0,1}, {2}, {0,2}, {1,2}, X
HAND_TABLE = [0.0, 0.2, 0.3, 0.6, 0.1, 0.4, 0.5, 1.0]


@pytest.mark.parametrize(
    "kind, value, arg",
    [
        # f = (0.5, 0.5, 0.2): mu(f >= t) is 1 up to t = 0.2, then mu({0,1}) = 0.6 up to t = 0.5
        ("min", 0.5, 0.5),  # max(min(0.2, 1), min(0.5, 0.6))
        ("product", 0.3, 0.5),  # max(0.2, 0.5 * 0.6)
        ("prodmax", 0.2, 0.2),  # max(0.2, 0.5 * 0.6 * 0.6 = 0.18)
        ("lukasiewicz", 0.2, 0.2),  # max(0.2, 0.5 + 0.6 - 1 = 0.1)
    ],
)
def test_reference_on_tied_values(kind, value, arg):
    got, got_arg = ref.integrals(kind, np.array(HAND_TABLE), [0.5, 0.5, 0.2])
    assert got[0] == pytest.approx(value, abs=1e-15)
    assert got_arg[0] == arg


def test_reference_breaks_value_ties_toward_the_smallest_threshold():
    table = np.array(HAND_TABLE)
    table[2], table[3] = 0.1, 0.2  # min(0.2, mu(X)) and min(0.5, mu({0,1})) now tie at 0.2
    value, arg = ref.integrals("min", table, [0.5, 0.5, 0.2])
    assert (value[0], arg[0]) == (0.2, 0.2)


def test_reference_agrees_with_semint_bit_for_bit():
    rng = np.random.default_rng(7)
    space = semint.FiniteSpace(5)
    for _ in range(50):
        table = ref.monotone_envelope(rng.random(32))
        c = semint.Capacity.from_table(space, table)
        values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()], size=5)  # many ties
        f = semint.MeasurableFn(space, values)
        for s in semint.BUILTINS:
            value, arg = ref.integrals(s.kind, table, values)
            res = semint.integrate(s, c, f)
            assert (res.value, res.argmax_threshold) == (value[0], arg[0])


def test_level_masks():
    masks = ref.level_masks([[0.1, 0.5, 0.9]], [0.0, 0.5, 0.95])
    assert masks.tolist() == [[0b111, 0b110, 0]]


def test_violation_counter_on_known_tables():
    assert ref.monotonicity_violations([0.0, 0.7, 0.3, 0.5]) == 1  # mu({0}) > mu({0,1})
    # mu({0}) = 0.9 exceeds both mu({0,1}) and mu({0,2})
    assert ref.monotonicity_violations([0.0, 0.9, 0.1, 0.5, 0.1, 0.5, 0.5, 1.0]) == 2
    assert ref.monotonicity_violations(HAND_TABLE) == 0


def test_violation_counter_agrees_with_validate_table():
    rng = np.random.default_rng(3)
    space = semint.FiniteSpace(7)
    table = ref.monotone_envelope(rng.random(128))
    table[rng.choice(np.arange(1, 127), 10, replace=False)] = 1.0
    listed = [v for v in semint.validate_table(space, table) if v.kind == "not-monotone"]
    assert ref.monotonicity_violations(table) == len(listed) > 0


def test_monotone_envelope_is_a_capacity():
    table = ref.monotone_envelope(np.random.default_rng(0).random(256))
    assert semint.validate_table(semint.FiniteSpace(8), table) == []


def test_strict_json_rejects_non_finite_numbers():
    assert ref.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', "[Infinity]", "[-Infinity]"):
        with pytest.raises(ValueError):
            ref.strict_json(text)


def test_self_time_subtracts_direct_children():
    spans = [
        (2, 1, 0, "child", 10, 30, {}),
        (3, 2, 0, "grandchild", 12, 20, {}),
        (4, 1, 0, "child", 40, 45, {}),
        (1, 0, 0, "root", 0, 100, {}),
    ]
    assert self_times_ns(spans) == [12, 8, 5, 75]


def test_layer_metrics_count_audit_strict_calls_and_the_oracle_kernel():
    ms = 1_000_000
    spans = [
        (3, 2, 0, "convergence.check_strict", 0, ms, {}),
        (2, 1, 0, "convergence.theorem1_audit", 0, ms, {}),
        (1, 0, 0, "convergence.random_audit", 0, 2 * ms, {"cases": 1}),
        (4, 0, 0, "convergence.check_strict", 2 * ms, 3 * ms, {}),  # a converge call, outside any audit
        (6, 5, 0, "integral._grid_profile", 3 * ms, 5 * ms, {}),
        (5, 0, 0, "integral.integrate_grid_oracle", 3 * ms, 6 * ms, {}),
        (7, 0, 0, "integral._grid_profile", 6 * ms, 10 * ms, {}),  # the oracle subcommand's direct call
    ]
    metrics = layer_metrics(spans, ops=1)
    assert metrics["convergence.check_strict.calls_per_case"] == 1.0
    assert metrics["integral.integrate_grid_oracle.self_ms"] == 7.0


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.5"]
    return subprocess.run(cmd + ["--trace", str(trace), "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_clean_at_a_tiny_size(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in group]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_semint_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = _run("audit", 0, cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)

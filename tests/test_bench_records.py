"""Checks on the committed benchmark records, ``BENCH_*.json`` at the repository root.

A record holds the runs of ``bench/run.py`` behind a performance claim, in
parent/change pairs.  It is only evidence if every run measured the metrics
``BENCHMARK.json`` declares, every op passed its checks, and no run lacks
the other side of its pair.
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_environment(path):
    env = load(path)["environment"]
    assert isinstance(env["python"], str) and isinstance(env["numpy"], str)
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    sha = env["parent_sha"]
    assert len(sha) == 40 and set(sha) <= set("0123456789abcdef")


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_measures_the_declared_metrics_and_passes_its_checks(path):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    runs = load(path)["runs"]
    assert runs
    for run in runs:
        where = (run["workload"], run["pair"], run["side"])
        assert run["workload"] in workloads, where
        assert run["side"] in ("parent", "change"), where
        assert isinstance(run["seed"], int) and run["seconds"] > 0, where
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, where
        assert result["attempted"] > 0, where
        metrics = result["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == want, where
        assert all(math.isfinite(m["value"]) for m in metrics.values()), where


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_pair_has_both_sides_once(path):
    runs = load(path)["runs"]
    sides = Counter((run["workload"], run["pair"], run["side"]) for run in runs)
    assert all(count == 1 for count in sides.values()), sides
    pairs = {(workload, pair) for workload, pair, _ in sides}
    for workload, pair in pairs:
        assert (workload, pair, "parent") in sides and (workload, pair, "change") in sides, (workload, pair)
        seeds = {run["seed"] for run in runs if (run["workload"], run["pair"]) == (workload, pair)}
        assert len(seeds) == 1, (workload, pair)  # both sides of a pair ran the same inputs


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_the_claim_names_a_declared_metric_and_rests_on_ten_complete_pairs(path):
    record = load(path)
    claim = record["claim"]
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in SPEC["workloads"]}
    assert claim["metric"] in better and claim["better"] == better[claim["metric"]]
    sides = {(run["pair"], run["side"]) for run in record["runs"] if run["workload"] == claim["workload"]}
    complete = {pair for pair, side in sides if side == "parent" and (pair, "change") in sides}
    assert len(complete) >= 10

"""The benchmark's four workloads: inputs made from a seed, one timed op each, and its output checks.

Every workload repeats one op of a fixed shape and size, so op times form a
single population.  ``make_input`` and ``check`` run outside the timed
interval; ``check`` returns a list of problems, empty when the op's outputs
agree with the computations in ``reference`` (made apart from semint) and
with the properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from semint import (
    BUILTINS,
    Capacity,
    FiniteSpace,
    FnSequence,
    MeasurableFn,
    check_in_capacity,
    check_in_mean,
    check_strict,
    integrate,
    integrate_grid_oracle,
    random_audit,
    random_capacity,
    random_strict_sequence,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
KINDS = tuple(s.kind for s in BUILTINS)


def _exact_equal(label: str, got, want) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = int(bad[0])
        return [f"{label}: {bad.size} mismatches, first at {k}: {got.flat[k]!r} != {want.flat[k]!r}"]
    return []


def _ordered(label: str, by_kind: dict[str, np.ndarray]) -> list[str]:
    """prodmax <= product <= min and lukasiewicz <= product hold pointwise, so for integrals too."""
    problems = []
    for lo, hi in (("prodmax", "product"), ("product", "min"), ("lukasiewicz", "product")):
        if np.any(np.asarray(by_kind[lo]) > np.asarray(by_kind[hi])):
            problems.append(f"{label}: {lo} integral exceeds {hi}")
    return problems


def _support_masks(residuals: np.ndarray) -> np.ndarray:
    # {r > 0} is {r >= smallest positive double}
    return ref.level_masks(residuals, [np.nextafter(0.0, 1.0)])[:, 0]


class Workload:
    """One op shape; subclasses fill in the inputs, the op and its checks."""

    name = ""
    warmup = 1
    rss_of_children = False
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Build what every op reuses."""

    def make_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    # The traced run times ``replay`` with and without spans; for in-process
    # workloads it is the op itself.
    def replay(self, inp):
        return self.op(inp)

    def check_replay(self, inp, out) -> list[str]:
        return self.check(inp, out)

    def trace_extra(self) -> list[str] | None:
        """Run the untraced op a traced round adds, if any, and return its problems."""
        return None

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Audit(Workload):
    """One op: ``random_audit(FiniteSpace(6), BUILTINS, cases=1, seed=...)``."""

    name = "audit"
    warmup = 50
    horizon = 24
    expected_spans = (
        "convergence.random_audit",
        "capacity.random_capacity",
        "capacity.from_table",
        "capacity.validate_table",
        "convergence.random_strict_sequence",
        "convergence.theorem1_audit",
        "convergence.theorem2_audit",
        "convergence.check_strict",
        "convergence.check_in_capacity",
        "convergence.check_in_mean",
        "measurable.residual",
        "integral.integrate",
    )

    def setup(self) -> None:
        self.space = FiniteSpace(6)

    def make_input(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def op(self, case_seed: int):
        return random_audit(self.space, BUILTINS, cases=1, seed=case_seed)

    def check(self, case_seed: int, batches) -> list[str]:
        if len(batches) != 1 or len(batches[0]) != 1 + len(BUILTINS):
            return [f"audit: expected 1 case of {1 + len(BUILTINS)} reports"]
        reports = batches[0]
        problems = []
        for k, rep in enumerate(reports):
            pair = (rep.hypothesis.verdict, rep.conclusion.verdict)
            if pair != ("pass", "pass") or rep.violation:
                problems.append(f"audit report {k}: verdicts {pair}, violation {rep.violation}")

        # Regenerate the case's inputs from its seed; every value the reports
        # witness is then recomputed from them here.
        rng = np.random.default_rng(case_seed)
        capacity = random_capacity(self.space, rng)
        seq = random_strict_sequence(self.space, capacity, self.horizon, rng)
        table = capacity.table
        if table[0] != 0.0 or table[-1] != 1.0 or ref.monotonicity_violations(table):
            problems.append("audit: random capacity is not a capacity")
        residuals = np.abs(np.stack([t.values for t in seq.terms]) - seq.limit.values)

        problems += _exact_equal("audit strict", reports[0].hypothesis.per_n, table[_support_masks(residuals)])
        t_min = min(t for t, _ in reports[0].conclusion.per_t)
        survival = table[ref.level_masks(residuals, [t_min])[:, 0]]
        problems += _exact_equal("audit in-capacity", reports[0].conclusion.per_n, survival)
        for kind, rep in zip(KINDS, reports[1:]):
            want, _ = ref.integrals(kind, table, residuals)
            problems += _exact_equal(f"audit in-mean {kind}", rep.conclusion.per_n, want)
        return problems


class BigTables(Workload):
    """One op: four capacities at n = 22, each integrated under the builtins and by the grid oracle."""

    name = "big-tables"
    warmup = 2
    grid_points = 100_000
    distortion_nodes = 65
    sampled_masks = 4096
    sampled_chains = 64
    expected_spans = (
        "capacity.from_additive",
        "capacity.from_possibility",
        "capacity.random_capacity",
        "capacity.from_distortion",
        "capacity.from_table",
        "capacity.validate_table",
        "integral.integrate",
        "integral.integrate_grid_oracle",
    )

    def setup(self) -> None:
        self.space = FiniteSpace(10 if self.tiny else 22)

    def make_input(self, i: int) -> dict:
        n = self.space.size
        rng = np.random.default_rng([self.seed, i])
        additive = rng.random(n) + 0.05
        possibility = rng.random(n)
        possibility[rng.integers(n)] = 1.0
        return {
            "i": i,
            "additive": additive / additive.sum(),
            "possibility": possibility,
            "capacity_seed": int(rng.integers(2**63)),
            "g": np.concatenate(([0.0], np.sort(rng.random(self.distortion_nodes - 2)), [1.0])),
            "functions": rng.random((4, n)),
        }

    def op(self, inp: dict):
        space = self.space
        additive = Capacity.from_additive(space, inp["additive"])
        possibility = Capacity.from_possibility(space, inp["possibility"])
        rand = random_capacity(space, np.random.default_rng(inp["capacity_seed"]))
        distorted = Capacity.from_distortion(rand, inp["g"])
        results = []
        for k, c in enumerate((additive, possibility, rand, distorted)):
            f = MeasurableFn(space, inp["functions"][k])
            exact = [integrate(s, c, f) for s in BUILTINS]
            oracle = integrate_grid_oracle(BUILTINS[k], c, f, self.grid_points)
            results.append((c, exact, oracle))
        return results

    def check(self, inp: dict, results) -> list[str]:
        n = self.space.size
        rng = np.random.default_rng([self.seed, inp["i"], 1])
        masks = rng.integers(0, 1 << n, self.sampled_masks)
        bits = ref.bit_matrix(masks, n)
        (additive, _, _), (possibility, _, _), (rand, _, _), (distorted, _, _) = results
        problems = []
        for label, c in (("additive", additive), ("possibility", possibility), ("random", rand), ("distortion", distorted)):
            if c.table.size != 1 << n or c.table[0] != 0.0 or c.table[-1] != 1.0:
                problems.append(f"{label}: boundaries or size wrong")

        w = inp["additive"]
        if np.any(np.abs(additive.table[masks] - bits @ w / w.sum()) > 1e-12):
            problems.append("additive: entries differ from the weight sums")
        w = inp["possibility"]
        problems += _exact_equal("possibility", possibility.table[masks], np.where(bits, w, 0.0).max(axis=1))
        order = np.argsort(rng.random((self.sampled_chains, n)), axis=1)
        chains = np.bitwise_or.accumulate(np.left_shift(np.int64(1), order), axis=1)
        if np.any(np.diff(rand.table[chains], axis=1) < 0.0):
            problems.append("random: not monotone along a sampled chain")
        g = inp["g"]
        want = np.interp(rand.table[masks], np.linspace(0.0, 1.0, g.size), g)
        if np.any(np.abs(distorted.table[masks] - want) > 1e-12):
            problems.append("distortion: entries differ from interpolating the base")

        slack = 2.0 / (self.grid_points - 1)
        for k, (c, exact, oracle) in enumerate(results):
            values = inp["functions"][k]
            by_kind = {}
            for kind, res in zip(KINDS, exact):
                want, arg = ref.integrals(kind, c.table, values)
                by_kind[kind] = res.value
                problems += _exact_equal(f"integral {k} {kind}", [res.value, res.argmax_threshold], [want[0], arg[0]])
            top = ref.integrals(KINDS[k], c.table, values)[0][0]
            if not top - slack <= oracle <= top:
                problems.append(f"oracle {k}: {oracle!r} outside [{top - slack!r}, {top!r}]")
            problems += _ordered(f"capacity {k}", by_kind)
        return problems


class LongHorizon(Workload):
    """One op: all three modes on one explicit sequence of a few thousand terms at n = 16."""

    name = "long-horizon"
    warmup = 1
    sampled_thresholds = 16
    expected_spans = (
        "convergence.check_strict",
        "convergence.check_in_capacity",
        "convergence.check_in_mean",
        "measurable.residual",
        "integral.integrate",
    )

    def setup(self) -> None:
        self.space = FiniteSpace(8 if self.tiny else 16)
        self.horizon = 60 if self.tiny else 4000
        self.t_grid = np.logspace(-4.0, 0.0, 16 if self.tiny else 128)
        self.capacity = random_capacity(self.space, np.random.default_rng([self.seed, 2**32]))

    def make_input(self, i: int) -> dict:
        n = self.space.size
        rng = np.random.default_rng([self.seed, i])
        limit = rng.random(n)
        u = rng.random((self.horizon, n))
        # keep every residual clearly positive, so the support never shrinks
        u = np.where(np.abs(u - limit) < 1e-3, (limit + 0.5) % 1.0, u)
        k = np.arange(1, self.horizon + 1, dtype=np.float64)[:, None]
        terms = np.clip((1.0 - 1.0 / k) * limit + u / k, 0.0, 1.0)
        return {"i": i, "limit": limit, "terms": terms}

    def op(self, inp: dict):
        space, c = self.space, self.capacity
        seq = FnSequence(
            space,
            tuple(MeasurableFn(space, row) for row in inp["terms"]),
            MeasurableFn(space, inp["limit"]),
        )
        strict = check_strict(c, seq)
        in_capacity = check_in_capacity(c, seq, self.t_grid)
        in_mean = [check_in_mean(s, c, seq) for s in BUILTINS]
        return strict, in_capacity, in_mean

    def check(self, inp: dict, out) -> list[str]:
        strict, in_capacity, in_mean = out
        table = self.capacity.table
        residuals = np.abs(inp["terms"] - inp["limit"])
        problems = []
        if strict.verdict != "fail":
            problems.append(f"strict verdict {strict.verdict!r}, expected 'fail'")
        problems += _exact_equal("strict values", strict.per_n, table[_support_masks(residuals)])

        grid = [t for t, _ in in_capacity.per_t]
        problems += _exact_equal("in-capacity grid", grid, self.t_grid)
        survival = table[ref.level_masks(residuals, [self.t_grid.min()])[:, 0]]
        problems += _exact_equal("in-capacity survival", in_capacity.per_n, survival)
        rng = np.random.default_rng([self.seed, inp["i"], 1])
        picks = rng.choice(self.t_grid.size, self.sampled_thresholds, replace=False)
        tail = residuals[in_capacity.tail_start - 1 :]
        want = table[ref.level_masks(tail, self.t_grid[picks])].max(axis=0)
        got = [in_capacity.per_t[j][1] for j in picks]
        problems += _exact_equal("in-capacity tail sups", got, want)

        by_kind = {}
        largest = residuals.max(axis=1)
        for kind, rep in zip(KINDS, in_mean):
            values = np.asarray(rep.per_n)
            by_kind[kind] = values
            if np.any(values > largest):
                problems.append(f"in-mean {kind}: a term's integral exceeds its largest residual")
            problems += _exact_equal(f"in-mean {kind}", values, ref.integrals(kind, table, residuals)[0])
        return problems + _ordered("in-mean", by_kind)


class Cli(Workload):
    """One op: a session of cold ``python -m semint`` children, one at a time."""

    name = "cli"
    warmup = 1
    rss_of_children = True
    expected_spans = (
        "cli.run",
        "cli.parse_space",
        "cli.parse_capacity",
        "cli.parse_semicopula",
        "cli.parse_function",
        "cli.canonical_json",
        "integral._grid_profile",
        "capacity.from_table",
        "capacity.validate_table",
        "capacity.from_additive",
        "capacity.from_distortion",
        "capacity.random_capacity",
        "integral.integrate",
        "convergence.check_strict",
        "convergence.check_in_capacity",
        "convergence.check_in_mean",
        "convergence.random_audit",
        "semicopula.validate_semicopula",
    )
    oracle_points = 100_000

    def setup(self) -> None:
        import semint.cli  # the traced run replays sessions in process

        self.cli = semint.cli
        self.dir = OUT_DIR / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        rng = np.random.default_rng([self.seed, 0])
        tiny = self.tiny

        n = 8 if tiny else 16
        self.point_table = ref.monotone_envelope(rng.random(1 << n))
        self.point_kind = KINDS[self.seed % len(KINDS)]
        self.point_values = rng.random(n)
        point = {
            "space": {"n": n},
            "capacity": {"kind": "table", "values": self.point_table.tolist()},
            "semicopula": {"kind": self.point_kind},
            "function": {"values": self.point_values.tolist()},
        }

        m = 6 if tiny else 14
        table = ref.monotone_envelope(rng.random(1 << m))
        table[rng.choice(np.arange(1, (1 << m) - 1), 4 if tiny else 48, replace=False)] = 1.0
        self.capacity_table = table
        self.planted: int | None = None  # counted by the first check, so set-up does none of the checks' work
        capacity = {"kind": "table", "n": m, "values": table.tolist()}

        axis = np.linspace(0.0, 1.0, 101)
        a, b = np.meshgrid(axis, axis, indexing="ij")
        lam = rng.random()  # a convex mix of two semicopulas is a semicopula
        semicopula = {"kind": "table", "resolution": 100, "grid": (lam * np.minimum(a, b) + (1.0 - lam) * a * b).tolist()}

        converge = self._strict_instance(rng, 8, 40 if tiny else 200)
        self.audit_cases = 2 if tiny else 20

        paths = {}
        for label, doc in (("point", point), ("capacity", capacity), ("semicopula", semicopula), ("converge", converge)):
            paths[label] = self.dir / f"{label}.json"
            paths[label].write_text(json.dumps(doc), encoding="utf-8")
        self.session = (
            ("integrate", ["integrate", str(paths["point"])], 0),
            ("oracle", ["oracle", str(paths["point"]), "--grid-points", str(self.oracle_points)], 0),
            ("check-capacity", ["check-capacity", str(paths["capacity"])], None),  # 1 if any violation is counted
            ("check-semicopula", ["check-semicopula", str(paths["semicopula"])], 0),
            ("converge", ["converge", str(paths["converge"])], 0),
            ("audit", ["audit", "--cases", str(self.audit_cases), "--seed", str(self.seed), "--space-size", "6"], 0),
        )
        self.bytes_in = sum(Path(a).stat().st_size for _, argv, _ in self.session for a in argv if a.endswith(".json"))
        self.first: list[tuple[int, bytes]] | None = None
        self.startup_ms: list[float] = []
        self.child_ms: dict[str, list[float]] = {label: [] for label, _, _ in self.session}
        self.bytes_out = 0
        self._startup()

    @staticmethod
    def _strict_instance(rng: np.random.Generator, n: int, horizon: int) -> dict:
        """An explicit sequence whose support loses a point every few terms and is empty
        well before the default tail start, so all three modes pass."""
        limit = rng.random(n)
        support = list(range(n))
        step = max(1, horizon // (3 * n))
        terms = []
        for k in range(horizon):
            values = limit.copy()
            values[support] = rng.random(len(support))
            terms.append(values.tolist())
            if support and k % step == step - 1:
                support.pop(int(rng.integers(len(support))))
        weights = rng.random(n) + 0.05
        g = np.concatenate(([0.0], np.sort(rng.random(15)), [1.0]))
        return {
            "space": {"n": n},
            "capacity": {
                "kind": "distortion",
                "base": {"kind": "additive", "weights": (weights / weights.sum()).tolist()},
                "g": g.tolist(),
            },
            "semicopula": {"kind": "product"},
            "sequence": {"kind": "explicit", "terms": terms, "limit": limit.tolist()},
        }

    def _child(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "semint", *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return proc, time.perf_counter() - start

    def _startup(self) -> list[str]:
        proc, wall = self._child(["--help"])
        self.startup_ms.append(wall * 1e3)
        return [] if proc.returncode == 0 else [f"--help exited {proc.returncode}"]

    def make_input(self, i: int) -> None:
        return None

    def op(self, _inp) -> list[tuple[str, int, bytes, bytes, float]]:
        out = []
        for label, argv, _ in self.session:
            proc, wall = self._child(argv)
            out.append((label, proc.returncode, proc.stdout, proc.stderr, wall))
        return out

    def check(self, _inp, out) -> list[str]:
        if self.planted is None:
            self.planted = ref.monotonicity_violations(self.capacity_table)
        problems = []
        docs = {}
        for (label, code, stdout, stderr, _), (_, _, expected) in zip(out, self.session):
            expected = int(self.planted > 0) if expected is None else expected
            if code != expected:
                problems.append(f"{label}: exit {code}, expected {expected}: {stderr[-300:]!r}")
                continue
            try:
                docs[label] = ref.strict_json(stdout)
            except ValueError as e:
                problems.append(f"{label}: stdout is not strict JSON: {e}")
        if problems:
            return problems
        outputs = [(code, stdout) for _, code, stdout, _, _ in out]
        if self.first is None:
            self.first = outputs
            self.bytes_out = sum(len(stdout) for _, stdout in outputs)
        elif outputs != self.first:
            problems.append("stdout differs from the first session on the same inputs")

        value, arg = ref.integrals(self.point_kind, self.point_table, self.point_values)
        doc = docs["integrate"]
        if doc["value"] != value[0] or doc["argmax_t"] != arg[0]:
            problems.append(f"integrate: {doc['value']!r} at {doc['argmax_t']!r}, reference {value[0]!r} at {arg[0]!r}")
        if doc["candidates_inspected"] != np.unique(self.point_values).size:
            problems.append("integrate: candidates_inspected is not the number of distinct values")
        oracle = docs["oracle"]["value"]
        if not value[0] - 2.0 / (self.oracle_points - 1) <= oracle <= value[0]:
            problems.append(f"oracle: {oracle!r} outside the bound below {value[0]!r}")
        violations = docs["check-capacity"]["violations"]
        if len(violations) != self.planted or any(v["kind"] != "not-monotone" for v in violations):
            problems.append(f"check-capacity: {len(violations)} violations listed, {self.planted} counted")
        sc = docs["check-semicopula"]
        if not sc["passed"] or sc["violation_count"] != 0:
            problems.append("check-semicopula: a convex mix of semicopulas failed the axioms")
        conv = docs["converge"]
        if not conv["all_pass"] or {conv[m]["verdict"] for m in ("strict", "in_capacity", "in_mean")} != {"pass"}:
            problems.append("converge: a strictly convergent sequence did not pass every mode")
        audit = docs["audit"]
        audits = self.audit_cases * (1 + len(BUILTINS))
        if audit["violations"] != 0 or audit["audits"] != audits or audit["verdict_pairs"] != {"pass/pass": audits}:
            problems.append(f"audit: {audit['verdict_pairs']}, {audit['violations']} violations")
        return problems

    def replay(self, _inp) -> list[tuple[int, bytes]]:
        """The session's argvs through ``semint.cli.run`` in this process."""
        out = []
        for _, argv, _ in self.session:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.run(argv)
            out.append((code, stdout.getvalue().encode()))
        return out

    def check_replay(self, _inp, out) -> list[str]:
        return [] if out == self.first else ["in-process stdout differs from the children's"]

    def trace_extra(self) -> list[str]:
        problems = self._startup()
        out = self.op(None)
        for label, _, _, _, wall in out:
            self.child_ms[label].append(wall * 1e3)
        return problems + self.check(None, out)

    def layer_extras(self) -> dict[str, float]:
        extras = {f"cli.{label}.wall_ms": statistics.median(ms) for label, ms in self.child_ms.items() if ms}
        extras["cli.startup.wall_ms"] = statistics.median(self.startup_ms)
        extras["cli.bytes_in"] = float(self.bytes_in)
        extras["cli.bytes_out"] = float(self.bytes_out)
        return extras

    def close(self) -> None:
        shutil.rmtree(OUT_DIR / f"cli-{os.getpid()}", ignore_errors=True)


WORKLOADS = {w.name: w for w in (Audit, BigTables, LongHorizon, Cli)}

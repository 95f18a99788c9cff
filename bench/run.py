"""Run one benchmark workload against the semint sources of this checkout.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced ops
and prints the per-layer metrics, writing the spans to
``bench/out/trace-<workload>.jsonl``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process, one
after another, and prints a table.  The exit code is nonzero when any op
failed its checks or semint's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
SPAN_CAP = 100_000


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _result_line(proc_stdout: str) -> dict:
    return json.loads(proc_stdout.strip().splitlines()[-1])


def _self_argv(args, workload: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else [])


def _run_all(args) -> int:
    spec = _spec()
    group = "per_layer" if args.trace else "end_to_end"
    ok = True
    rows = []
    for w in spec["workloads"]:
        proc = subprocess.run(_self_argv(args, w["name"]), cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{w['name']}: exit {proc.returncode}")
            ok = False
            continue
        res = _result_line(proc.stdout)
        ok &= res["correct"] and res["failed"] == 0
        rows.append((w["name"], res))
    for name, res in rows:
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for m in spec[group]:
            metric = res["metrics"][m["name"]]
            print(f"  {m['name']:<44} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class Counter:
    """Ops attempted and failed, with the problems of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"bench: {label}: {problem}", file=sys.stderr)


def _timed(fn, inp):
    start = time.perf_counter()
    out = fn(inp)
    return out, time.perf_counter() - start


def _measure(wl, counter: Counter, seconds: float) -> list[float]:
    latencies = []
    i = wl.warmup
    deadline = time.perf_counter() + seconds
    while True:
        inp = wl.make_input(i)
        out, dt = _timed(wl.op, inp)
        latencies.append(dt)
        counter.record(f"op {i}", wl.check(inp, out))
        del inp, out  # so the next op does not run beside this one's outputs
        i += 1
        if time.perf_counter() >= deadline:
            return latencies


def _trace(wl, counter: Counter, seconds: float, workloads_module) -> dict[str, float]:
    tracer = Tracer(extra_namespaces=(workloads_module,))
    untraced, traced = [], []
    i = wl.warmup
    deadline = time.perf_counter() + seconds
    while True:
        extra = wl.trace_extra()
        if extra is not None:
            counter.record(f"untraced session {i}", extra)
        inp = wl.make_input(i)
        out, dt = _timed(wl.replay, inp)
        untraced.append(dt)
        counter.record(f"op {i}", wl.check_replay(inp, out))
        inp = wl.make_input(i + 1)
        tracer.op = i + 1
        with tracer.installed():
            out, dt = _timed(wl.replay, inp)
        traced.append(dt)
        counter.record(f"traced op {i + 1}", wl.check_replay(inp, out))
        del inp, out
        i += 2
        if time.perf_counter() >= deadline or len(tracer.spans) >= SPAN_CAP:
            break
    missing = sorted(set(wl.expected_spans) - tracer.fired())
    if missing:
        counter.failed += 1
        print(f"bench: expected spans never fired: {', '.join(missing)}", file=sys.stderr)
    tracer.write(BENCH / "out" / f"trace-{wl.name}.jsonl")
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics.update(wl.layer_extras())
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    return metrics


def _setup_probes(args, count: int) -> list[float]:
    """Set-up times of fresh processes doing the same set-up as this one."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            _self_argv(args, args.workload) + ["--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=170
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        samples.append(_result_line(proc.stdout)["setup_s"])
    return samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "semint" / "__init__.py").is_file():
        print(f"bench: no semint sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # imports semint, and numpy through it

    import semint

    if Path(semint.__file__).resolve().parent != src / "semint":
        print(f"bench: imported semint from {semint.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    counter = Counter()
    try:
        wl.setup()
        checking = 0.0  # the benchmark's own checks are not set-up work of the program
        for i in range(wl.warmup):
            inp = wl.make_input(i)
            out = wl.op(inp)
            check_start = time.perf_counter()
            counter.record(f"warm-up op {i}", wl.check(inp, out))
            checking += time.perf_counter() - check_start
            del inp, out
        setup_s = time.perf_counter() - start - checking
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if counter.failed == 0 else 1

        (BENCH / "out").mkdir(exist_ok=True)
        if args.trace:
            values = _trace(wl, counter, args.seconds, workloads)
            group = spec["per_layer"]
        else:
            latencies = _measure(wl, counter, args.seconds)
            peak = _peak_rss_mib(wl.rss_of_children)
            values = {
                "setup_s": statistics.median([setup_s, *_setup_probes(args, SETUP_SAMPLES - 1)]),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "peak_rss_mib": peak,
            }
            group = spec["end_to_end"]
    finally:
        wl.close()

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in group}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    correct = counter.failed == 0
    print(json.dumps({"correct": correct, "attempted": counter.attempted, "failed": counter.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

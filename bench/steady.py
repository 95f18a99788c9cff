"""Steadiness mode: two sets of benchmark runs of the same code, compared metric by metric.

    python3 bench/steady.py            # two sets of ten runs of every workload
    python3 bench/steady.py --runs 5   # two sets of five, for a quicker look

Each run is ``bench/run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json,
with its own seed (set k uses seeds ``(k-1)*runs + 1 .. k*runs``); runs
alternate between workloads so that a burst of load on the machine spreads
over all of them.  For every workload and end-to-end metric the script prints
each set's median and quartiles, the spread (quartile distance over median),
and how far the second set's median lies from the first, in either direction.
A metric agrees when both spreads and that distance are within its bound in
BENCHMARK.json.  The exit code is nonzero if any metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload in each set (at least 2)")
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    values: dict = {w: [{m["name"]: [] for m in spec["end_to_end"]} for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for r in range(args.runs):
            seed = k * args.runs + r + 1
            for w in names:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed)]
                cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                for name, metric in res["metrics"].items():
                    values[w][k][name].append(metric["value"])
                print(f"set {k + 1} {w} seed {seed}: " + ", ".join(f"{m} {v['value']:.6g}" for m, v in res["metrics"].items()), flush=True)

    print("\n| workload | metric | set | median | q1 | q3 | spread | 2nd median off by | bound | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    all_agree = True
    for w in names:
        for m in spec["end_to_end"]:
            sets = [_summary(values[w][k][m["name"]]) for k in range(SETS)]
            off = abs(sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            agree = off <= m["bound"] and all(s["spread"] <= m["bound"] for s in sets)
            all_agree &= agree
            for k, s in enumerate(sets):
                tail = f"{off:.3f} | {m['bound']} | {'yes' if agree else 'NO'}" if k == SETS - 1 else " | | "
                print(f"| {w} | {m['name']} | {k + 1} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.3f} | {tail} |")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())

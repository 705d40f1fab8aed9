#!/usr/bin/env python3
"""Steadiness check: each workload in two separate sets of runs.

Usage (from the repository root):

    python3 perfbench/steady.py

Every workload of BENCHMARK.json runs with its run_seconds, ten times in
set A (seeds 1..10) and ten times in set B (seeds 101..110); all of set A
runs before set B. For every end-to-end metric it prints each set's
median, quartiles and spread (interquartile range over the median) and
the gap between the two medians as a share of set A's, and judges the
metric against its bound: the spread must stay within a third of the
bound and the gap within the bound. Raw results go to _work/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "_work" / "steady.json"
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - start
    result["stderr"] = proc.stderr[-4000:]
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {"A": range(1, RUNS + 1), "B": range(101, 101 + RUNS)}
    raw: dict = {s: {w: [] for w in workloads} for s in sets}
    started = time.perf_counter()
    for set_name, seeds in sets.items():
        for workload in workloads:
            for seed in seeds:
                raw[set_name][workload].append(one_run(workload, seed, seconds))
                print(f"set {set_name} {workload} seed {seed}: "
                      f"{raw[set_name][workload][-1]['run_s']:.1f} s", file=sys.stderr)
    minutes = (time.perf_counter() - started) / 60

    ok = True
    report: dict = {"runs": RUNS, "seconds": seconds, "minutes": minutes, "workloads": {}}
    print(f"{RUNS} runs per set, --seconds {seconds}, {minutes:.1f} min in all")
    for workload in workloads:
        per_workload = report["workloads"][workload] = {}
        results = {s: raw[s][workload] for s in sets}
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in results.items()}
        correct = all(r["correct"] for rs in results.values() for r in rs)
        print(f"\n{workload}: all correct={correct}, failed share A={shares['A']:.4f} "
              f"B={shares['B']:.4f}, mean run {statistics.mean(r['run_s'] for rs in results.values() for r in rs):.1f} s")
        ok &= correct and shares["A"] == shares["B"]
        for metric in results["A"][0]["metrics"]:
            stats = {s: summary([r["metrics"][metric]["value"] for r in rs])
                     for s, rs in results.items()}
            gap = (stats["B"]["median"] - stats["A"]["median"]) / stats["A"]["median"]
            bound = bounds[metric]
            spread_ok = max(stats[s]["spread"] for s in sets) <= bound / 3
            gap_ok = abs(gap) <= bound
            verdict = f"bound {bound:.2f}: " + ("ok" if spread_ok and gap_ok else "NOT STEADY")
            ok &= spread_ok and gap_ok
            per_workload[metric] = {**stats, "gap": gap, "bound": bound}
            print(f"  {metric:12s} " + "  ".join(
                f"{s}: {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] spread {st['spread']:.1%}"
                for s, st in stats.items()) + f"  gap {gap:+.1%}  {verdict}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"report": report, "raw": raw}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

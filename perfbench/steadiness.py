"""Steadiness check: run the benchmark as two sets of runs on the same
commit and report, for each (end-to-end metric, workload) pair, the
spread of each set and whether the two medians agree within the bound
fixed in BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads W ...] [--runs 10]

Run from the root of a source checkout.  Every run measures for the
run_seconds of BENCHMARK.json and gets its own seed, counting up from
1000.  The spread of a set is (Q3 - Q1) / median of its runs, with
quartiles as statistics.quantiles(values, n=4) gives them.  A pair is
steady when both sets' spreads are within the bound and the two medians
differ, in either direction, by at most the bound as a share of the
first.  Exits 1 when some pair is not steady.  Each row also says whether
every spread is below a third of the bound, the margin to aim for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 1000


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def judge(metric: dict, first: list[float], second: list[float]) -> dict:
    stats = [summarize(first), summarize(second)]
    bound = metric["bound"]
    change = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
    spread_ok = all(s["spread"] <= bound for s in stats)
    return {"metric": metric["name"], "bound": bound, "sets": stats,
            "max_spread": max(s["spread"] for s in stats),
            "median_change": change, "steady": spread_ok and abs(change) <= bound,
            "spread_below_third": all(s["spread"] < bound / 3 for s in stats)}


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks: {proc.stderr[-2000:]}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="two-set steadiness check of the benchmark")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least 2 runs")
    steady = True
    seed = FIRST_SEED
    for workload in args.workloads:
        values: dict[str, list[list[float]]] = {m["name"]: [] for m in spec["end_to_end"]}
        for _ in range(SETS):
            for column in values.values():
                column.append([])
            for _ in range(args.runs):
                result = run_once(spec, workload, seed)
                seed += 1
                for name, column in values.items():
                    column[-1].append(result["metrics"][name]["value"])
        for metric in spec["end_to_end"]:
            row = judge(metric, *values[metric["name"]])
            steady = steady and row["steady"]
            spreads = " ".join(f"{s['spread']:.3f}" for s in row["sets"])
            medians = " ".join(f"{s['median']:.4g}" for s in row["sets"])
            print(f"{workload:15} {metric['name']:13} n={row['sets'][0]['n']}x{SETS} "
                  f"medians {medians} spreads {spreads} change {row['median_change']:+.3f} "
                  f"bound {metric['bound']} {'steady' if row['steady'] else 'NOT STEADY'}"
                  f"{'' if row['spread_below_third'] else ' (spread above bound/3)'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench/run.py, as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent DIR --out FILE [--seed 0] [--pairs 10]
        [--workload NAME ...]

DIR is an unpacked copy of the commit to compare against (for example from
`git archive`); the change is the tree this script lives in. Each tree runs
`perfbench/run.py` on every workload (or on each --workload given) at its
default --seconds, in its own process and on its own package, in --pairs
alternating pairs: parent first in even pairs, change first in odd ones.
Both trees run on the same machine, one process at a time.

For each end-to-end metric the report holds the per-pair values, the
medians and quartiles of each side, the quartile spread over the median,
and the pairs where the change came out lower. A run that is incorrect or
has failed calls stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
WORKLOADS = ("gpl_h07_n4k", "baseline_h07_n16k", "sweep_h_n1k")
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
PAIRS = 10


def run_tree(tree: str, *args) -> list[str]:
    res = subprocess.run([sys.executable, *args], cwd=tree, check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")))
    return res.stdout.splitlines()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median, "runs": values}


def compare(parent: list[float], change: list[float]) -> dict:
    return {"parent": summary(parent), "change": summary(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="unpacked copy of the commit to compare against")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=PAIRS, help="alternating parent/change pairs")
    ap.add_argument("--out", required=True, help="report file")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to pair; repeat for several (default: all)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2: quartiles need two runs a side")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    env, e2e = {}, {}
    for w in args.workload or WORKLOADS:
        runs = {side: {m: [] for m in METRICS} for side in trees}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                lines = run_tree(trees[side], "perfbench/run.py", "--workload", w, "--seed", str(args.seed))
                env.setdefault(side, next(ln for ln in lines if ln.startswith("env ")))
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{side} {w}: incorrect or failed calls: {lines[-1]}")
                for m in METRICS:
                    runs[side][m].append(result["metrics"][m]["value"])
            print(f"{w} pair {i}: wall_s {runs['parent']['wall_s'][-1]:.4f} -> "
                  f"{runs['change']['wall_s'][-1]:.4f}", file=sys.stderr)
        e2e[w] = {m: compare(runs["parent"][m], runs["change"][m]) for m in METRICS}

    report = {"what": "perfbench/run.py end-to-end metrics, parent vs change", "env": env,
              "seed": args.seed, "pairs": args.pairs, "end_to_end": e2e}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Before/after numbers for one classifier Adam step, as a BENCH_*.json file.

    python3 scripts/bench_classifier_step.py --parent DIR [--seed 0]

DIR is an unpacked copy of the commit to compare against (for example from
`git archive`); the change is the tree this script lives in. Two parts:

- Per-step time: the best of 5 x 300 `backward_and_step` calls on one
  workspace, planted graph at h=0.7, hidden 16, at n = 1000/4000/16000,
  with one BLAS thread. Each tree runs its own copy of this script with
  --step-times, in its own process, so each is timed with the step
  signature of its own package.
- End to end: `perfbench/run.py` on every workload at its default
  --seconds, in 10 alternating pairs (parent first in even pairs, change
  first in odd ones), one process per run. For each metric the file holds the per-pair values, the medians and
  quartiles of each side, and the pairs where the change came out lower.

Both trees run on the same machine, one process at a time. The report goes
to BENCH_classifier_step.json at the root of this tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import timeit

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
# one BLAS thread, as in perfbench/run.py, so the step times match the
# steps the benchmark runs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
WORKLOADS = ("gpl_h07_n4k", "baseline_h07_n16k", "sweep_h_n1k")
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
STEP_SIZES = (1000, 4000, 16000)
PAIRS = 10
OUT = os.path.join(ROOT, "BENCH_classifier_step.json")


def step_times() -> dict:
    """Best per-step microseconds of backward_and_step for the gpl on sys.path."""
    from gpl.gnn import Workspace, backward_and_step, init_classifier
    from gpl.graph import gcn_operator
    from gpl.synth import PlantedConfig, generate_planted, make_pu_split

    out = {}
    for n in STEP_SIZES:
        g = generate_planted(PlantedConfig(n=n, h=0.7, seed=0))
        split = make_pu_split(g, 0.5, seed=0)
        op = gcn_operator(g, None)
        work = Workspace(op, g.features, 16)
        state = init_classifier(g.features.shape[1], 16, seed=0)
        times = timeit.repeat(
            lambda: backward_and_step(state, work, split.P, split.U, 0.01),
            number=300, repeat=5)
        out[str(n)] = 1e6 * min(times) / 300
    return out


def run_tree(tree: str, *args) -> list[str]:
    res = subprocess.run([sys.executable, *args], cwd=tree, check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")))
    return res.stdout.splitlines()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="unpacked copy of the commit to compare against")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}

    steps = {side: json.loads(run_tree(tree, "scripts/bench_classifier_step.py", "--step-times")[-1])
             for side, tree in trees.items()}
    env, e2e = {}, {}
    for w in WORKLOADS:
        runs = {side: {m: [] for m in METRICS} for side in trees}
        for i in range(PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                lines = run_tree(trees[side], "perfbench/run.py", "--workload", w,
                                 "--seed", str(args.seed))
                env.setdefault(side, next(ln for ln in lines if ln.startswith("env ")))
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{side} {w}: incorrect or failed calls: {lines[-1]}")
                for m in METRICS:
                    runs[side][m].append(result["metrics"][m]["value"])
            print(f"{w} pair {i}: wall_s {runs['parent']['wall_s'][-1]:.4f} -> "
                  f"{runs['change']['wall_s'][-1]:.4f}", file=sys.stderr)
        e2e[w] = {m: {"parent": summary(runs["parent"][m]), "change": summary(runs["change"][m]),
                      "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"][m], runs["change"][m]))}
                  for m in METRICS}

    report = {
        "what": "one classifier Adam step (gnn.backward_and_step), parent vs change",
        "env": env,
        "seed": args.seed, "pairs": PAIRS,
        "step_us": {"sizes": list(STEP_SIZES), "best_of": "5 x 300 calls", **steps},
        "end_to_end": e2e,
    }
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--step-times"]:
        print(json.dumps(step_times()))
    else:
        sys.exit(main())

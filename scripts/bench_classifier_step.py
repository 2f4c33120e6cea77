#!/usr/bin/env python3
"""Before/after numbers for one classifier Adam step, as a BENCH_*.json file.

    python3 scripts/bench_classifier_step.py --parent DIR [--seed 0] [--pairs 10] [--out FILE]
        [--workload NAME ...]

DIR is an unpacked copy of the commit to compare against (for example from
`git archive`); the change is the tree this script lives in. Two parts:

- Per-step time: the best of 5 repeats of `backward_and_step` calls on one
  workspace, hidden 16, with one BLAS thread, on planted graphs at h=0.7:
  n = 1000/4000/16000 with 8 features, and Cora's shape, n=2708 with 1433
  features and average degree 3.9. Each shape gives a raw time and a
  scaled one: as perfbench/run.py scales its seconds, each repeat is
  multiplied by PROBE_REF_S over the mean of the `perfbench/probe.py`
  SpeedProbe times taken just before and just after it. This script times
  both trees, each in its own process with the tree's own package, so
  both sides run the same timer and probe on the same shapes; the two
  trees take --pairs alternating turns.
- End to end: `perfbench/run.py` on every workload (or on each --workload
  given) at its default --seconds, in --pairs alternating pairs (parent
  first in even pairs, change first in odd ones), one process per run.

For each metric the file holds the per-pair values, the medians and
quartiles of each side, the quartile spread over the median, and the pairs
where the change came out lower.

Both trees run on the same machine, one process at a time. The report goes
to --out, by default BENCH_classifier_step.json at the root of this tree.
"""

import argparse
import functools
import importlib.util
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
# name: (n, feature_dim, avg_degree, calls per repeat)
STEP_SHAPES = {"1000": (1000, 8, 10.0, 300), "4000": (4000, 8, 10.0, 300), "16000": (16000, 8, 10.0, 300),
               "cora_2708x1433": (2708, 1433, 3.9, 30)}
PAIRS = 10
OUT = os.path.join(ROOT, "BENCH_classifier_step.json")
PROBE_REF_S = 0.010  # perfbench/run.py's reference speed: the probe takes 10 ms


def step_times() -> dict:
    """Best per-step microseconds of backward_and_step for the gpl on
    sys.path, {shape: {"raw": us, "scaled": us}}; a scaled repeat is a raw
    one times PROBE_REF_S over the mean of the probes on either side."""
    from gpl.gnn import Workspace, backward_and_step, init_classifier
    from gpl.graph import gcn_operator
    from gpl.synth import PlantedConfig, generate_planted, make_pu_split

    # loaded by path, so that perfbench's modules stay off sys.path
    spec = importlib.util.spec_from_file_location("probe", os.path.join(ROOT, "perfbench", "probe.py"))
    probe_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe_module)
    probe = probe_module.SpeedProbe()
    out = {}
    for name, (n, d, degree, number) in STEP_SHAPES.items():
        g = generate_planted(PlantedConfig(n=n, h=0.7, avg_degree=degree, feature_dim=d, seed=0))
        split = make_pu_split(g, 0.5, seed=0)
        op = gcn_operator(g, None)
        state = init_classifier(d, 16, seed=0)
        work = Workspace(op, g.features, 16, split.P, split.U)
        step = functools.partial(backward_and_step, state, work, 0.01)
        probes, raw, scaled = [probe()], [], []
        for _ in range(5):
            raw.append(1e6 * timeit.timeit(step, number=number) / number)
            probes.append(probe())
            scaled.append(raw[-1] * PROBE_REF_S / ((probes[-2] + probes[-1]) / 2))
        out[name] = {"raw": min(raw), "scaled": min(scaled)}
    return out


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
    ap.add_argument("--out", default=OUT, help="report file")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="end-to-end workload to pair; repeat for several (default: all)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2: quartiles need two runs a side")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}

    def sides(i):
        return ("parent", "change") if i % 2 == 0 else ("change", "parent")

    steps = {side: {k: {"raw": [], "scaled": []} for k in STEP_SHAPES} for side in trees}
    for i in range(args.pairs):
        for side in sides(i):
            for k, us in json.loads(run_tree(trees[side], os.path.abspath(__file__), "--step-times")[-1]).items():
                for form in ("raw", "scaled"):
                    steps[side][k][form].append(us[form])
    step_us = {k: {form: compare(steps["parent"][k][form], steps["change"][k][form]) for form in ("raw", "scaled")}
               for k in STEP_SHAPES}
    env, e2e = {}, {}
    for w in args.workload or WORKLOADS:
        runs = {side: {m: [] for m in METRICS} for side in trees}
        for i in range(args.pairs):
            for side in sides(i):
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
        e2e[w] = {m: compare(runs["parent"][m], runs["change"][m]) for m in METRICS}

    report = {
        "what": "one classifier Adam step (gnn.backward_and_step), parent vs change",
        "env": env,
        "seed": args.seed, "pairs": args.pairs,
        "step_us": {"shapes": {k: {"n": n, "features": d, "avg_degree": deg, "best_of": f"5 x {num} calls",
                                   "scaled_by": f"{PROBE_REF_S} s / probe s"}
                               for k, (n, d, deg, num) in STEP_SHAPES.items()},
                    **step_us},
        "end_to_end": e2e,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--step-times"]:
        print(json.dumps(step_times()))
    else:
        sys.exit(main())

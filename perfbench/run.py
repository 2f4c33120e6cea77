"""Benchmark for the `gpl` package: three output-checked workloads.

    python3 perfbench/run.py --workload gpl_h07_n4k --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 -m pytest perfbench -q        # tests of the benchmark itself

Each run derives its inputs from --seed only and calls the program in a
closed loop from one process, cycling through the inputs: each call sets
its input up afresh (timed as set-up), calls the program (timed) and checks
the output (check.py). Every input runs at least once; more calls start
while they fit in --seconds. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the environment, the checks and every metric with its unit.

Workloads, all with one outer epoch of 25 mask steps and 50 refit steps
(see SHORT) so that a call takes about a second:
  gpl_h07_n4k        run_gpl, n=4000, h=0.7, rp=0.5. Mask descent dominates:
                     the graph and propagation layers.
  baseline_h07_n16k  run_baseline, n=16000. No mask code runs, so graph or
                     propagation changes must leave it alone; Adam steps and
                     the quadratic estimate_prior dominate time and memory.
  sweep_h_n1k        `gpl sweep --var h --values 0.3,0.7 --seeds a,b --n 1000
                     --method both` with GPL_THREADS=2: many small runs, graph
                     generation inside each job, the CLI thread pool. runs.csv
                     must be byte-identical to a GPL_THREADS=1 run, and each
                     of its rows must match a direct run_gpl / run_baseline
                     call on the same graph (check_sweep_rows).

End-to-end metrics (--trace 0): wall_s and cpu_s (medians over calls),
setup_s (median over set-up units: one input, or one sweep graph) and
peak_rss_mb (this process's high-water mark). The box's speed drifts by
tens of percent while a run lasts, so the seconds are speed-normalised:
each sample is scaled by PROBE_REF_S over the time of a fixed probe
(probe.py) run next to it, with as many threads as the call. Raw medians
are on the report lines as raw.*. So are f1_u and prior_abs_err (means
over inputs) and failed_frac, which stay out of the result object: F1 and
the prior error swing between seeds far more than a regression bound, and
failures are counted in `failed`.

Per-layer metrics (--trace 1) come from a separate run with tracer.py
installed: after one untraced warm-up call, one traced pass over the
inputs, spans aggregated per public function.
`.calls` counts and `.s` inclusive seconds are totals over the pass (set-up
included, except in the sweep, whose jobs generate their own graphs);
`.self_pct` / `.pct` are shares of the calls' wall time, so the sweep's two
threads can take a sum over 100%. Sweep-only metrics read 0 elsewhere, and
times that would be 0 on some workload are given as shares. The tracing
overhead and the sweep's thread speedup come from untraced calls made
after the pass (see trace_run). cpe.estimate_prior.peak_mb is taken on the
calling thread only (tracer.py), so it reads 0 on the sweep, whose jobs
run on pool threads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
# BLAS threads only spin on gpl's narrow matrices and make cpu_s noisy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gpl.cli  # noqa: E402
import gpl.gnn  # noqa: E402
import gpl.graph  # noqa: E402
import gpl.synth  # noqa: E402
import gpl.trainer  # noqa: E402

import check  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
PROBE_REF_S = 0.010  # reference machine speed: the probe takes 10 ms
OVERHEAD_PAIRS = 3  # untraced/traced call pairs behind tracing.overhead_s
SWEEP_KEYS = ("f1_u", "pi_hat", "mean_weight_homo", "mean_weight_hetero")


@dataclass(frozen=True)
class Workload:
    name: str
    method: str            # "gpl", "baseline" or "sweep"
    n: int
    inputs: int            # distinct inputs per run, all derived from --seed
    train: tuple = ()      # TrainConfig overrides, (key, value) pairs
    h: float = 0.7
    rp: float = 0.5
    sweep_values: tuple = (0.3, 0.7)
    threads: int = 2       # GPL_THREADS for the sweep

    def config(self, seed):
        return gpl.trainer.TrainConfig(seed=seed, **dict(self.train))


# One outer epoch with 25 mask steps and 50 refit steps, so that a call
# takes about a second and one run holds a few dozen calls and probes.
SHORT = (("outer_epochs", 1), ("k_inner", 25), ("clf_steps_per_epoch", 50))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("gpl_h07_n4k", "gpl", n=4000, inputs=4, train=SHORT),
        Workload("baseline_h07_n16k", "baseline", n=16000, inputs=4, train=SHORT),
        Workload("sweep_h_n1k", "sweep", n=1000, inputs=2, train=SHORT),
    )
}

# -- inputs --------------------------------------------------------------------


@dataclass
class Input:
    seed: int
    graphs: list          # [(seed, h, graph, split)]
    setup_times: list     # seconds per set-up unit
    argv: list | None = None


def make_input(w: Workload, seed: int) -> Input:
    """Generate the graphs an input needs. For the sweep these give the
    expected pi_true of every grid row; the CLI regenerates its own."""
    if w.method == "sweep":
        grid = [(h, 2 * seed + k) for h in w.sweep_values for k in (0, 1)]
    else:
        grid = [(w.h, seed)]
    graphs, times = [], []
    for h, s in grid:
        t0 = time.perf_counter()
        g = gpl.synth.generate_planted(gpl.synth.PlantedConfig(n=w.n, h=h, seed=s))
        split = gpl.synth.make_pu_split(g, w.rp, seed=s)
        times.append(time.perf_counter() - t0)
        graphs.append((s, h, g, split))
    inp = Input(seed, graphs, times)
    if w.method == "sweep":
        cfg_path = WORK / f"{w.name}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in w.train), encoding="utf-8")
        inp.argv = [
            "sweep", "--var", "h", "--values", ",".join(f"{v:g}" for v in w.sweep_values),
            "--seeds", f"{2 * seed},{2 * seed + 1}", "--n", str(w.n), "--rp", f"{w.rp:g}",
            "--method", "both", "--config", str(cfg_path),
        ]
    return inp


# -- one program call -------------------------------------------------------------


@dataclass
class Result:
    fingerprint: dict     # floats compared to the reference at 1e-9
    digest: str           # trace.csv or runs.csv bytes; must repeat exactly
    f1_u: float
    prior_abs_err: float


def call(w: Workload, inp: Input, threads: int | None = None):
    """The timed program call; returns its raw output."""
    if w.method == "sweep":
        out = WORK / f"{w.name}_{inp.seed}_t{threads or w.threads}"
        env_before = os.environ.get("GPL_THREADS")
        os.environ["GPL_THREADS"] = str(threads or w.threads)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gpl.cli.main(inp.argv + ["--out", str(out)])
        finally:
            if env_before is None:
                del os.environ["GPL_THREADS"]
            else:
                os.environ["GPL_THREADS"] = env_before
        check.require(rc == 0, f"gpl sweep exited with {rc}")
        return (out / "runs.csv").read_bytes()
    _, _, g, split = inp.graphs[0]
    if w.method == "gpl":
        return gpl.trainer.run_gpl(g, split, w.config(inp.seed))
    return gpl.trainer.run_baseline(g, split, w.config(inp.seed))


def sweep_grid(inp: Input):
    """(h, seed, method, pi_true) of every runs.csv row, in file order."""
    return sorted((h, s, m, split.pi_true) for s, h, _, split in inp.graphs for m in ("baseline", "gpl"))


def check_output(w: Workload, inp: Input, raw) -> Result:
    """Check one call's output against recomputation; no timing here."""
    if w.method == "sweep":
        rows = check.check_runs_csv(raw.decode("utf-8"), sweep_grid(inp))
        fp = {key: [r[key] for r in rows] for key in SWEEP_KEYS}
        return Result(fp, check.digest(raw), statistics.fmean(fp["f1_u"]),
                      statistics.fmean(r["prior_abs_err"] for r in rows))
    _, _, g, split = inp.graphs[0]
    if w.method == "gpl":
        clf, mask, prior, trace = raw
        theta = mask.theta
    else:
        (clf, trace), mask, prior, theta = raw, None, None, None
    scores = gpl.gnn.forward(clf, gpl.graph.gcn_operator(g, mask), g.features)
    fp = check.check_training(
        g, split, clf, theta, trace.rows, scores, w.config(inp.seed).outer_epochs, mask is not None
    )
    if prior is not None:
        check.require(prior.pi_hat == trace.rows[-1].pi_hat, "returned prior differs from the trace")
    fp["trace"] = [v for r in trace.rows for v in
                   (r.lpl_loss, r.pi_hat, r.clf_loss, r.f1_u, r.mean_weight_homo, r.mean_weight_hetero)
                   if math.isfinite(v)]
    path = WORK / f"{w.name}_trace.csv"
    gpl.trainer.trace_to_csv(trace, path)
    return Result(fp, check.digest(path.read_bytes()), fp["f1_u"], abs(fp["pi_hat"] - fp["pi_true"]))


def check_sweep_rows(w: Workload, inp: Input, res: Result):
    """Each runs.csv row must match, to 1e-9, run_gpl / run_baseline called
    directly on the same graph, split and config, with that output passing
    check_output. This holds the sweep to the library on every seed, not
    only on those with a stored reference."""
    graphs = {(h, s): (g, split) for s, h, g, split in inp.graphs}
    for k, (h, s, method, _) in enumerate(sweep_grid(inp)):
        single = replace(w, method=method, h=h)
        one = Input(s, [(s, h, *graphs[(h, s)])], [])
        want = check_output(single, one, call(single, one)).fingerprint
        for key in SWEEP_KEYS:
            got = res.fingerprint[key][k]
            check.require(check.close(got, want[key]),
                          f"runs.csv row {k}: {key} {got!r} != direct {method} call's {want[key]!r}")


def load_reference():
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


# -- runs ----------------------------------------------------------------------


class Run:
    """Bookkeeping for one benchmark run: calls made, failures, results."""

    def __init__(self, w: Workload, reference: dict, tracer: Tracer | None = None):
        self.w = w
        self.reference = reference.get(w.name, {})
        self.tracer = tracer
        self.setup_ranges = []  # span-log ranges of recorded set-ups
        self.call_ranges = []   # and of recorded calls
        self.attempted = 0
        self.failures = []
        self.results = {}       # input seed -> first Result
        self.notes = []

    def _mark(self):
        return self.tracer.mark() if self.tracer else 0

    def checked_call(self, seed: int, threads=None, record=True):
        """Set up one input, call the program on it and check the output.

        Returns (set-up unit seconds, call wall s, call cpu s), or None if
        anything failed. Only the call itself is timed as wall and cpu.
        """
        self.attempted += 1
        try:
            m0 = self._mark()
            inp = make_input(self.w, seed)
            m1 = self._mark()
            t0, c0 = time.perf_counter(), time.process_time()
            raw = call(self.w, inp, threads)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if self.tracer and record:
                self.setup_ranges.append((m0, m1))
                self.call_ranges.append((m1, self._mark()))
            res = check_output(self.w, inp, raw)
            first = self.results.setdefault(seed, res)
            check.require(res.digest == first.digest,
                          f"input {seed}: output digest {res.digest} != first call's {first.digest}")
            if first is res:
                self._compare_reference(seed, res)
            if self.w.method == "sweep" and threads == 1:
                check_sweep_rows(self.w, inp, res)
                self.notes.append(f"input {seed}: runs.csv rows match direct library calls to 1e-9")
            return inp.setup_times, wall, cpu
        except Exception as exc:  # any failure counts against the run
            self.failures.append(f"input {seed}: {type(exc).__name__}: {exc}")
            return None

    def _compare_reference(self, seed, res: Result):
        ref = self.reference.get(str(seed))
        if ref is None:
            self.notes.append(f"input {seed}: no stored reference, recomputation checks only")
            return
        check.compare_reference(res.fingerprint, ref["values"], f"input {seed}")
        same = "identical" if ref["digest"] == res.digest else "different"
        self.notes.append(f"input {seed}: matches stored reference to 1e-9; output bytes {same}")


def environment(w: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "gpl"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "GPL_THREADS": str(w.threads) if w.method == "sweep" else os.environ.get("GPL_THREADS", "unset"),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py"))),
    }


def input_seeds(w: Workload, seed: int):
    return [seed * w.inputs + j for j in range(w.inputs)]


def sweep_reference(run: Run, seeds):
    """Untraced GPL_THREADS=1 run of each sweep input: runs.csv must be
    byte-identical, and its rows match direct library calls. Returns the
    walls, None for a failed call."""
    return [g[1] if g else None for g in (run.checked_call(s, threads=1, record=False) for s in seeds)]


def measure(w: Workload, seed: int, seconds: float, reference: dict):
    """Untraced run: end-to-end metrics.

    Every call sets its input up afresh, so set-up samples spread over the
    run like call samples do. A speed probe runs between calls, and each
    sample is scaled by PROBE_REF_S over the mean of the probes on either
    side of it: seconds at a fixed machine speed. The raw seconds go on
    the report lines.
    """
    run = Run(w, reference)
    seeds = input_seeds(w, seed)
    threads = w.threads if w.method == "sweep" else 1
    probe = functools.partial(SpeedProbe(), threads)
    probes = [probe()]
    raw = {"setup_s": [], "wall_s": [], "cpu_s": []}
    norm = {"setup_s": [], "wall_s": [], "cpu_s": []}
    k = 0
    start = time.perf_counter()
    while True:
        got = run.checked_call(seeds[k % len(seeds)])
        probes.append(probe())
        k += 1
        if got is not None:
            scale = PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
            for name, xs in zip(raw, (got[0], [got[1]], [got[2]])):
                raw[name] += xs
                norm[name] += [x * scale for x in xs]
        elapsed = time.perf_counter() - start
        if k >= len(seeds) and elapsed * (k + 1) / k > seconds:
            break
    if w.method == "sweep":
        sweep_reference(run, seeds)
    metrics = {name: (median(xs), "s") for name, xs in norm.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra = {
        "f1_u": (mean(r.f1_u for r in run.results.values()), "ratio"),
        "prior_abs_err": (mean(r.prior_abs_err for r in run.results.values()), "ratio"),
        "failed_frac": (len(run.failures) / run.attempted, "ratio"),
        "wall_s.samples": (len(norm["wall_s"]), "count"),
        "wall_s.min": (min(norm["wall_s"], default=0.0), "s"),
        "wall_s.max": (max(norm["wall_s"], default=0.0), "s"),
        "setup_s.samples": (len(norm["setup_s"]), "count"),
        **{f"raw.{name}": (median(xs), "s") for name, xs in raw.items()},
        "probe_s": (median(probes), "s"),
        "run.total_s": (time.perf_counter() - start, "s"),
    }
    return run, metrics, extra


def trace_run(w: Workload, seed: int, reference: dict):
    """Traced run: one pass over the inputs, per-layer metrics.

    An untraced warm-up call comes first, so that the traced pass pays no
    one-time costs. After the pass, OVERHEAD_PAIRS untraced and traced
    calls on the first input alternate; the difference of their median
    walls is the tracing overhead. The sweep's thread speedup is the first
    input's untraced GPL_THREADS=1 wall over the median of its untraced
    GPL_THREADS=2 walls from those pairs, so no tracer hook slows either.
    """
    tracer = Tracer()
    run = Run(w, reference, tracer)
    seeds = input_seeds(w, seed)
    run.checked_call(seeds[0], record=False)
    with tracer:
        got = [run.checked_call(s) for s in seeds]
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(run.checked_call(seeds[0], record=False))
        with tracer:
            traced.append(run.checked_call(seeds[0], record=False))
    plain_s = median([g[1] for g in plain if g])
    traced_s = median([g[1] for g in traced if g])
    base = None
    if w.method == "sweep":
        threads1_s = sweep_reference(run, seeds)[0]
        base = (threads1_s, plain_s) if threads1_s and plain_s else None
    ok = [g for g in got if g]

    def spans(ranges):
        return [s for a, b in ranges for s in tracer.spans[a:b]]

    # the sweep's jobs generate their own graphs: its set-up is not counted
    setup = [] if w.method == "sweep" else spans(run.setup_ranges)
    m, extra = layer_metrics(setup, spans(run.call_ranges), sum(g[1] for g in ok), sum(g[2] for g in ok), base)
    m["tracing.overhead_s"] = (traced_s - plain_s, "s")
    extra["tracing.traced_wall_s"] = (traced_s, "s")
    extra["tracing.untraced_wall_s"] = (plain_s, "s")
    return run, m, extra


def aggregate(spans) -> dict:
    by = {}
    for s in spans:
        agg = by.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += s.self_s
        agg["peak_mb"] = max(agg["peak_mb"], s.peak_mb or 0.0)
    return by


def layer_metrics(setup, spans, wall, cpu, base):
    """Counts and seconds cover set-up and calls; shares cover the calls.
    `base` is the sweep's (GPL_THREADS=1, =2) wall pair, None elsewhere."""
    by = aggregate(setup + spans)
    in_calls = aggregate(spans)

    def get(name, key, agg=by):
        return agg.get(name, {}).get(key, 0.0)

    def pct(name, key="s"):
        return 100.0 * get(name, key, in_calls) / wall if wall > 0 else 0.0

    names = {s.id: s.name for s in spans}
    evals_in_descent = sum(
        1 for s in spans if s.name == "propagation.propagate" and names.get(s.parent) == "propagation.optimize_mask"
    )
    grads = get("propagation.lpl_gradient", "calls")
    bwd_calls = get("gnn.backward_and_step", "calls")
    m = {}
    for name in ("graph.propagation_operator", "graph.gcn_operator", "propagation.optimize_mask",
                 "propagation.lpl_gradient", "propagation.propagate", "gnn.backward_and_step",
                 "gnn.select_top", "cpe.estimate_prior"):
        m[f"{name}.calls"] = (int(get(name, "calls")), "count")
    m["propagation.loss_evals_per_step"] = (evals_in_descent / grads if grads else 0.0, "ratio")
    for name in ("graph.gcn_operator", "graph.build_graph", "synth.generate_planted", "synth.make_pu_split",
                 "gnn.backward_and_step", "gnn.forward", "cpe.estimate_prior",
                 "metrics.edge_weight_means", "metrics.f1_score"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["gnn.backward_and_step.us_per_call"] = (1e6 * get("gnn.backward_and_step", "s") / bwd_calls if bwd_calls else 0.0, "us")
    m["cpe.estimate_prior.peak_mb"] = (get("cpe.estimate_prior", "peak_mb"), "MB")
    for layer in LAYERS:
        self_s = sum(a["self_s"] for n, a in in_calls.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_pct"] = (100.0 * self_s / wall if wall > 0 else 0.0, "%")
    for name in ("graph.propagation_operator", "propagation.optimize_mask", "propagation.propagate", "gnn.select_top"):
        m[f"{name}.pct"] = (pct(name), "%")
    m["propagation.lpl_gradient.self_pct"] = (pct("propagation.lpl_gradient", "self_s"), "%")
    m["cli.sweep.cpu_per_wall"] = (cpu / wall if base and wall > 0 else 0.0, "ratio")
    m["cli.sweep.thread_speedup"] = (base[0] / base[1] if base else 0.0, "ratio")
    # printed only: zero on workloads that do not run them
    extra = {
        "propagation.optimize_mask.s": (get("propagation.optimize_mask", "s"), "s"),
        "propagation.lpl_gradient.self_s": (get("propagation.lpl_gradient", "self_s"), "s"),
        "propagation.propagate.s": (get("propagation.propagate", "s"), "s"),
        "graph.propagation_operator.s": (get("graph.propagation_operator", "s"), "s"),
        "gnn.select_top.s": (get("gnn.select_top", "s"), "s"),
        "trainer.run_gpl.self_s": (get("trainer.run_gpl", "self_s"), "s"),
        "trainer.run_baseline.self_s": (get("trainer.run_baseline", "self_s"), "s"),
        "cli.sweep.threads1_s": (base[0] if base else 0.0, "s"),
        "cli.sweep.threads2_s": (base[1] if base else 0.0, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(setup) + len(spans), "count"),
    }
    return m, extra


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


# -- command line ------------------------------------------------------------------


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    reference = load_reference()
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment(w).items()))
    if args.trace:
        run, metrics, extra = trace_run(w, args.seed, reference)
    else:
        run, metrics, extra = measure(w, args.seed, args.seconds, reference)
    for note in run.notes:
        print("check " + note)
    for failure in run.failures:
        print("FAILED " + failure)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value!r} {unit}")
    correct = not run.failures and len(run.results) == w.inputs
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke runs of the scripts at tiny sizes: each figure script's run(args)
exits 0 and writes its CSVs, and bench_classifier_step.py's step timer
returns one time per size. That script's paired benchmark runs are only
checked with a stand-in for subprocess.run: for real they take minutes."""

import csv
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    "fig_prior_error_vs_h": (dict(values="0.3,0.7", seeds="0", n=60),
                             ["sweep_h/runs.csv", "sweep_h/aggregate.csv", "prior_error_vs_h.csv"]),
    "fig_f1_vs_rp": (dict(values="0.5,0.9", seeds="0", h=0.7, n=60),
                     ["sweep_rp/runs.csv", "sweep_rp/aggregate.csv"]),
    "fig_k_sensitivity": (dict(values="1,2", seeds="0", h=0.5, n=60),
                          ["sweep_k/runs.csv", "sweep_k/aggregate.csv"]),
    # no size flag: one seed at the script's own n=1000
    "fig_edge_weight_split": (dict(h=0.7, seeds=1), ["edge_weight_split.csv"]),
}


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_its_csvs(name, tmp_path):
    module = load(name)
    kwargs, files = CASES[name]
    assert module.run(SimpleNamespace(out=str(tmp_path), **kwargs)) == 0
    for rel in files:
        with open(tmp_path / rel, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), rel


def test_bench_step_timer_times_each_size(monkeypatch):
    # the script sets OPENBLAS_NUM_THREADS on import; monkeypatch restores it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    module = load("bench_classifier_step")
    monkeypatch.setattr(module, "STEP_SIZES", (200,))
    times = module.step_times()
    assert list(times) == ["200"] and times["200"] > 0


def test_bench_times_each_tree_with_its_own_step_timer(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    module = load("bench_classifier_step")
    calls = []
    result = {"correct": True, "failed": 0, "metrics": {m: {"value": 1.0} for m in module.METRICS}}

    def run(cmd, cwd, **kwargs):
        calls.append((cwd, cmd[1:]))
        out = {"1000": 1.0} if cmd[-1] == "--step-times" else result
        return SimpleNamespace(stdout=f"env x\n{json.dumps(out)}\n")

    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setattr(module, "WORKLOADS", ("gpl_h07_n4k",))
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(module, "OUT", str(tmp_path / "bench.json"))
    parent = tmp_path / "parent"
    assert module.main(["--parent", str(parent)]) == 0
    # run_tree runs each command in its tree, so the parent's own script is the one timed
    timers = [(cwd, args) for cwd, args in calls if args[-1] == "--step-times"]
    assert timers == [(str(parent), ["scripts/bench_classifier_step.py", "--step-times"]),
                      (module.ROOT, ["scripts/bench_classifier_step.py", "--step-times"])]
    assert json.loads((tmp_path / "bench.json").read_text())["step_us"]["parent"] == {"1000": 1.0}

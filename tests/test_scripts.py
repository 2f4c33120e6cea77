"""Smoke runs of the scripts at tiny sizes: each figure script's run(args)
exits 0 and writes its CSVs, and bench_classifier_step.py's step timer
returns a raw and a probe-scaled time per shape. That script's paired
benchmark runs are only checked with a stand-in for subprocess.run: for
real they take minutes."""

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
    assert module.STEP_SHAPES["cora_2708x1433"][:3] == (2708, 1433, 3.9)
    monkeypatch.setattr(module, "STEP_SHAPES", {"200": (200, 8, 10.0, 3), "wide": (100, 40, 3.9, 2)})
    times = module.step_times()
    assert list(times) == ["200", "wide"]
    assert all(set(t) == {"raw", "scaled"} and min(t.values()) > 0 for t in times.values())


def bench_stub(module, monkeypatch):
    """Stand-in for subprocess.run: (calls made, as (tree, args))."""
    calls = []
    result = {"correct": True, "failed": 0, "metrics": {m: {"value": 1.0} for m in module.METRICS}}

    def run(cmd, cwd, **kwargs):
        calls.append((cwd, cmd[1:]))
        out = {k: {"raw": 1.0, "scaled": 2.0} for k in module.STEP_SHAPES} if cmd[-1] == "--step-times" else result
        return SimpleNamespace(stdout=f"env x\n{json.dumps(out)}\n")

    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setattr(module, "WORKLOADS", ("gpl_h07_n4k",))
    return calls


def test_bench_times_each_tree_with_its_own_step_timer(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    module = load("bench_classifier_step")
    calls = bench_stub(module, monkeypatch)
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(module, "OUT", str(tmp_path / "bench.json"))
    parent = tmp_path / "parent"
    assert module.main(["--parent", str(parent)]) == 0
    # run_tree runs each command in its tree, on that tree's package, and
    # both trees run this script's timer; they take alternating turns,
    # parent first
    timer = [str(SCRIPTS / "bench_classifier_step.py"), "--step-times"]
    timers = [(cwd, args) for cwd, args in calls if args[-1] == "--step-times"]
    assert timers == [(str(parent), timer), (module.ROOT, timer), (module.ROOT, timer), (str(parent), timer)]
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["pairs"] == 2
    assert set(report["step_us"]) == {"shapes", *module.STEP_SHAPES}
    assert report["step_us"]["1000"]["raw"]["parent"]["runs"] == [1.0, 1.0]
    assert report["step_us"]["1000"]["scaled"]["change"]["runs"] == [2.0, 2.0]


def test_bench_pairs_and_out_flags(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    module = load("bench_classifier_step")
    calls = bench_stub(module, monkeypatch)
    default_out = tmp_path / "default.json"
    monkeypatch.setattr(module, "OUT", str(default_out))
    out = tmp_path / "other.json"
    assert module.main(["--parent", str(tmp_path), "--pairs", "3", "--out", str(out)]) == 0
    assert not default_out.exists()
    report = json.loads(out.read_text())
    assert report["pairs"] == 3
    assert report["end_to_end"]["gpl_h07_n4k"]["wall_s"]["change"]["runs"] == [1.0] * 3
    assert sum(args[0] == "perfbench/run.py" for _, args in calls) == 6
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path), "--pairs", "1"])


def test_bench_workload_flag_pairs_only_the_named_workloads(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    module = load("bench_classifier_step")
    calls = bench_stub(module, monkeypatch)
    monkeypatch.setattr(module, "WORKLOADS", ("gpl_h07_n4k", "sweep_h_n1k"))
    out = tmp_path / "sweep.json"
    assert module.main(["--parent", str(tmp_path), "--pairs", "2", "--out", str(out),
                        "--workload", "sweep_h_n1k"]) == 0
    runs = [args for _, args in calls if args[0] == "perfbench/run.py"]
    assert len(runs) == 4 and all(args[2] == "sweep_h_n1k" for args in runs)
    assert list(json.loads(out.read_text())["end_to_end"]) == ["sweep_h_n1k"]
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path), "--workload", "no_such_workload"])

"""Smoke runs of the scripts at tiny sizes: every figure script in scripts/
has a case in CASES, and its run(args) exits 0 and writes its CSVs. Grids
of runs have no script: they are `gpl sweep` commands, tested in
test_cli.py. bench_pairs.py's paired benchmark runs are only checked with a
stand-in for subprocess.run: for real they take minutes."""

import csv
import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# figure script -> (its args at a tiny size, the CSVs it writes under --out)
CASES = {
    # no size flag: one seed at the script's own n=1000
    "fig_edge_weight_split": (dict(h=0.7, seeds=1), ["edge_weight_split.csv"]),
}


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_figure_script_has_a_smoke_run():
    assert sorted(p.stem for p in SCRIPTS.glob("fig_*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_its_csvs(name, tmp_path):
    module = load(name)
    kwargs, files = CASES[name]
    assert module.run(SimpleNamespace(out=str(tmp_path), **kwargs)) == 0
    for rel in files:
        with open(tmp_path / rel, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), rel


def bench_stub(module, monkeypatch, faults={}):
    """Stand-in for subprocess.run: (calls made, as (tree, args)). A run
    prints its tree as its env, reports 1.0 in the change and 2.0 in a
    parent, and adds what faults holds for its tree."""
    calls = []

    def run(cmd, cwd, env, **kwargs):
        assert env["PYTHONPATH"] == os.path.join(cwd, "src")
        calls.append((cwd, cmd[1:]))
        value = 1.0 if cwd == module.ROOT else 2.0
        result = {"correct": True, "failed": 0, "metrics": {m: {"value": value} for m in module.METRICS},
                  **faults.get(cwd, {})}
        return SimpleNamespace(stdout=f"env {cwd}\n{json.dumps(result)}\n")

    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setattr(module, "WORKLOADS", ("gpl_h07_n4k",))
    return calls


def test_bench_runs_perfbench_in_each_tree_in_alternating_pairs(monkeypatch, tmp_path):
    module = load("bench_pairs")
    calls = bench_stub(module, monkeypatch)
    monkeypatch.setattr(module, "PAIRS", 2)
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    assert module.main(["--parent", str(parent), "--out", str(out)]) == 0
    # each run is perfbench/run.py in its own tree, on that tree's package;
    # the trees alternate, parent first in even pairs
    run = ["perfbench/run.py", "--workload", "gpl_h07_n4k", "--seed", "0"]
    assert calls == [(str(parent), run), (module.ROOT, run), (module.ROOT, run), (str(parent), run)]
    report = json.loads(out.read_text())
    assert list(report) == ["what", "env", "seed", "pairs", "end_to_end"]
    assert report["env"] == {"parent": f"env {parent}", "change": f"env {module.ROOT}"} and report["pairs"] == 2
    wall = report["end_to_end"]["gpl_h07_n4k"]["wall_s"]
    assert (wall["parent"]["runs"], wall["change"]["runs"], wall["change_lower_in_pairs"]) == ([2.0] * 2, [1.0] * 2, 2)


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 1}], ids=["incorrect", "failed"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_stops_at_an_incorrect_or_failed_run(monkeypatch, tmp_path, side, fault):
    module = load("bench_pairs")
    parent, out = tmp_path / "parent", tmp_path / "bench.json"
    bench_stub(module, monkeypatch, {str(parent) if side == "parent" else module.ROOT: fault})
    with pytest.raises(SystemExit, match=f"^{side} gpl_h07_n4k: incorrect or failed calls"):
        module.main(["--parent", str(parent), "--pairs", "2", "--out", str(out)])
    assert not out.exists()


def test_bench_pairs_and_out_flags(monkeypatch, tmp_path):
    module = load("bench_pairs")
    calls = bench_stub(module, monkeypatch)
    out = tmp_path / "other.json"
    assert module.main(["--parent", str(tmp_path), "--pairs", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pairs"] == 3 and report["end_to_end"]["gpl_h07_n4k"]["wall_s"]["change"]["runs"] == [1.0] * 3
    assert len(calls) == 6
    # --out is required, so no run overwrites a committed report by default
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path)])
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path), "--pairs", "1", "--out", str(tmp_path / "one.json")])
    assert len(calls) == 6 and not (tmp_path / "one.json").exists()


def test_bench_workload_flag_pairs_only_the_named_workloads(monkeypatch, tmp_path):
    module = load("bench_pairs")
    calls = bench_stub(module, monkeypatch)
    monkeypatch.setattr(module, "WORKLOADS", ("gpl_h07_n4k", "sweep_h_n1k"))
    out = tmp_path / "sweep.json"
    assert module.main(["--parent", str(tmp_path), "--pairs", "2", "--out", str(out),
                        "--workload", "sweep_h_n1k"]) == 0
    assert len(calls) == 4 and all(args[2] == "sweep_h_n1k" for _, args in calls)
    assert list(json.loads(out.read_text())["end_to_end"]) == ["sweep_h_n1k"]
    with pytest.raises(SystemExit):
        module.main(["--parent", str(tmp_path), "--out", str(out), "--workload", "no_such_workload"])

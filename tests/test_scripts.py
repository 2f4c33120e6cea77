"""Smoke runs of the figure scripts at tiny sizes: each run(args) exits 0 and
writes its CSVs. bench_classifier_step.py is left out: it runs the benchmark
in pairs."""

import csv
import importlib.util
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_its_csvs(name, tmp_path):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    kwargs, files = CASES[name]
    assert module.run(SimpleNamespace(out=str(tmp_path), **kwargs)) == 0
    for rel in files:
        with open(tmp_path / rel, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows), rel

"""Acceptance gate: one test per shipped claim, one printed PASS/FAIL line
per clause with the measured value next to the bound it is held to.

Run under pytest; use -s to see the lines as they print. The planted-graph
protocols pin every seed, so each line is reproducible bit for bit.
"""

import functools
import os
import tempfile
import time

import numpy as np
import pytest

from gpl.cli import main
from gpl.cpe import estimate_prior
from gpl.metrics import (
    check_clf_gradient_suite,
    check_contraction_suite,
    check_influence_suite,
    check_lpl_gradient_suite,
    check_row_stochastic_suite,
)
from gpl.synth import PlantedConfig, generate_planted, load_dataset, make_pu_split
from gpl.trainer import TrainConfig, run_baseline, run_gpl

from conftest import separable_score_mixture


def report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {num:>2} {name}: {detail}"
    print(line)
    return line


def _problem(h, pi_p, seed):
    """Planted graph, split and config of the claims that train at n=1000."""
    pcfg = PlantedConfig(n=1000, pi_p=pi_p, h=h, avg_degree=10.0,
                         feature_dim=8, feature_separation=2.0, seed=seed)
    g = generate_planted(pcfg)
    return g, make_pu_split(g, 0.5, seed=seed), TrainConfig(seed=seed)


@functools.cache
def _gpl_run(h, pi_p, seed):
    """(prior, trace) of run_gpl on _problem(h, pi_p, seed). Claims 7 and 8
    both read the runs at h=0.7, pi_p=0.25, seeds 0-4, so these run once."""
    _, _, prior, trace = run_gpl(*_problem(h, pi_p, seed))
    return prior, trace


def _paired_run(h, pi_p, seed):
    """Baseline and mask-learning runs on the same planted problem; returns
    (baseline prior error, gpl prior error, baseline f1, gpl f1)."""
    g, split, cfg = _problem(h, pi_p, seed)
    _, tr_b = run_baseline(g, split, cfg)
    pi_b = tr_b.rows[-1].pi_hat
    prior_g, tr_g = _gpl_run(h, pi_p, seed)
    return (abs(pi_b - split.pi_true), abs(prior_g.pi_hat - split.pi_true),
            tr_b.rows[-1].f1_u, tr_g.rows[-1].f1_u)


def test_01_gradient_oracles():
    t0 = time.monotonic()
    lpl = check_lpl_gradient_suite()
    clf = check_clf_gradient_suite()
    dt = time.monotonic() - t0
    ok = lpl.passed and clf.passed and dt < 30.0
    detail = (f"finite-difference rel err mask={lpl.worst:.3g} "
              f"classifier={clf.worst:.3g} (bound 1e-4, 20 instances each, "
              f"{dt:.1f}s < 30s)")
    report(1, "gradient oracles", ok, detail)
    assert ok, detail


def test_02_belief_conservation():
    r = check_row_stochastic_suite()
    ok = r.passed
    detail = f"worst |row sum - 1| = {r.worst:.3g} over 100 instances (bound 1e-10)"
    report(2, "belief conservation", ok, detail)
    assert ok, detail


def test_03_influence_sum_identity():
    t0 = time.monotonic()
    r = check_influence_suite()
    dt = time.monotonic() - t0
    ok = r.passed and dt < 60.0
    detail = (f"worst residual = {r.worst:.3g} over 50 graphs "
              f"(bound 1e-6, {dt:.1f}s < 60s)")
    report(3, "influence sum identity", ok, detail)
    assert ok, detail


def test_04_aggregation_contraction():
    r = check_contraction_suite()
    ok = r.passed
    detail = (f"worst (after - before) = {r.worst:.3g} over 100 instances "
              f"(slack 1e-9, zero violations allowed)")
    report(4, "aggregation contraction", ok, detail)
    assert ok, detail


def test_05_prior_estimation_accuracy():
    counts = {}
    for pi in (0.1, 0.25, 0.5):
        ok_seeds = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sp, su = separable_score_mixture(rng, 2000, pi)
            est = estimate_prior(sp, su)
            ok_seeds += abs(est.pi_hat - pi) <= 0.05
        counts[pi] = ok_seeds
    ok = all(v >= 18 for v in counts.values())
    detail = ("seeds with |estimate - prior| <= 0.05: "
              + ", ".join(f"pi={k}: {v}/20" for k, v in counts.items())
              + " (need >= 18 each)")
    report(5, "prior estimation accuracy", ok, detail)
    assert ok, detail


def test_06_prior_error_heterophily_trend():
    # unlabeled-set prior 0.2: planted positive fraction 1/3 with half
    # of the positives observed
    t0 = time.monotonic()
    errs = {0.2: {"b": [], "g": []}, 0.8: {"b": [], "g": []}}
    for h in (0.2, 0.8):
        for seed in range(5):
            eb, eg, _, _ = _paired_run(h, 1 / 3, seed)
            errs[h]["b"].append(eb)
            errs[h]["g"].append(eg)
    dt = time.monotonic() - t0
    b_low = float(np.mean(errs[0.2]["b"]))
    b_high = float(np.mean(errs[0.8]["b"]))
    g_high = float(np.mean(errs[0.8]["g"]))
    ok = (b_high > b_low) and (g_high < b_high) and dt < 600.0
    detail = (f"baseline prior error {b_low:.4f}@h=0.2 -> {b_high:.4f}@h=0.8 "
              f"(must rise); masked loop {g_high:.4f}@h=0.8 (must undercut "
              f"baseline); 5 seeds, {dt:.0f}s < 600s")
    report(6, "prior error rises with heterophily", ok, detail)
    assert ok, detail


def test_07_edge_weight_separation():
    ok_seeds = 0
    gaps = []
    for seed in range(20):
        last = _gpl_run(0.7, 0.25, seed)[1].rows[-1]
        gaps.append(last.mean_weight_homo - last.mean_weight_hetero)
        ok_seeds += last.mean_weight_hetero < last.mean_weight_homo
    ok = ok_seeds >= 18
    detail = (f"mean same-class weight above cross-class weight in "
              f"{ok_seeds}/20 seeds (need >= 18; median gap "
              f"{float(np.median(gaps)):.3f})")
    report(7, "learned weights split by edge type", ok, detail)
    assert ok, detail


def test_08_end_to_end_f1_gap():
    t0 = time.monotonic()
    f1b, f1g = [], []
    for seed in range(5):
        _, _, fb, fg = _paired_run(0.7, 0.25, seed)
        f1b.append(fb)
        f1g.append(fg)
    dt = time.monotonic() - t0
    gap = float(np.mean(f1g) - np.mean(f1b))
    ok = gap >= 0.05 and dt < 900.0
    detail = (f"mean F1 gap = {gap:+.4f} (gpl {np.mean(f1g):.3f} vs baseline "
              f"{np.mean(f1b):.3f}, need >= +0.05; 5 seeds, h=0.7, r_p=0.5, "
              f"{dt:.0f}s < 900s)")
    report(8, "end-to-end F1 advantage", ok, detail)
    assert ok, detail


def test_09_citation_graph_benchmark():
    cora = os.environ.get("GPL_CORA_DIR", os.path.join("data", "cora"))
    if not os.path.isdir(cora):
        print("SKIP  9 citation benchmark: no dataset directory "
              f"({cora}); clause applies only when data is supplied")
        pytest.skip("citation dataset not present")
    g = load_dataset(cora)
    split = make_pu_split(g, 0.5, seed=0)
    _, _, prior, trace = run_gpl(g, split, TrainConfig(seed=0))
    f1 = trace.rows[-1].f1_u
    err = abs(prior.pi_hat - split.pi_true)
    ok = f1 >= 0.75 and err <= 0.05
    detail = f"F1 = {f1:.4f} (need >= 0.75), prior error = {err:.4f} (need <= 0.05)"
    report(9, "citation benchmark", ok, detail)
    assert ok, detail


def test_10_train_determinism():
    with tempfile.TemporaryDirectory() as td:
        data = os.path.join(td, "data")
        assert main(["synth", "--n", "1000", "--h", "0.7", "--out", data]) == 0
        blobs = []
        for name in ("r1", "r2"):
            out = os.path.join(td, name)
            assert main(["train", "--data", data, "--out", out]) == 0
            with open(os.path.join(out, "trace.csv"), "rb") as f:
                blobs.append(f.read())
        ok = blobs[0] == blobs[1]
    detail = (f"two identical-config runs, trace files byte-identical: {ok} "
              f"({len(blobs[0])} bytes)")
    report(10, "repeated training is byte-identical", ok, detail)
    assert ok, detail


"""Tests for the benchmark itself, on tiny configurations.

    python3 -m pytest perfbench -q
"""

import dataclasses

import pytest

import check
import run
import tracer as tracer_module
from tracer import Tracer

import gpl
import gpl.cli
import gpl.cpe
import gpl.graph
import gpl.metrics
import gpl.propagation
import gpl.synth
import gpl.trainer

TRAIN = (("outer_epochs", 2), ("k_inner", 3), ("clf_steps_per_epoch", 5), ("warmup_steps", 4))
TINY_GPL = run.Workload("tiny_gpl", "gpl", n=120, inputs=2, train=TRAIN)
TINY_BASELINE = run.Workload("tiny_baseline", "baseline", n=120, inputs=2, train=TRAIN)
TINY_SWEEP = run.Workload("tiny_sweep", "sweep", n=120, inputs=1, train=TRAIN)


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)
    (run.WORK / "tiny.cfg").write_text("".join(f"{k} = {v}\n" for k, v in TRAIN), encoding="utf-8")


def traced(w, seed=0):
    r, metrics, extra = run.trace_run(w, seed, {})
    assert not r.failures, r.failures
    return r, {k: v for k, (v, _unit) in {**metrics, **extra}.items()}


def test_tracer_patches_every_binding_and_restores_it():
    bindings = {
        gpl.graph.propagation_operator: [gpl, gpl.graph, gpl.propagation, gpl.trainer, gpl.metrics],
        gpl.cpe.estimate_prior: [gpl.cpe, gpl.trainer, gpl.cli],
        gpl.trainer.run_gpl: [gpl.trainer, gpl.cli],
        gpl.trainer.run_baseline: [gpl.trainer, gpl.cli],
        gpl.synth.generate_planted: [gpl.synth, gpl.cli],
        gpl.synth.make_pu_split: [gpl.synth, gpl.cli],
    }
    with Tracer():
        for fn, holders in bindings.items():
            for mod in holders:
                bound = getattr(mod, fn.__name__)
                assert bound is not fn and bound.__wrapped__ is fn, (mod.__name__, fn.__name__)
    for fn, holders in bindings.items():
        for mod in holders:
            assert getattr(mod, fn.__name__) is fn


def test_self_time_accounts_for_nesting():
    tracer = Tracer()
    with tracer:
        g = gpl.synth.generate_planted(gpl.synth.PlantedConfig(n=60, h=0.5, seed=1))
        split = gpl.synth.make_pu_split(g, 0.5, seed=1)
        gpl.trainer.run_gpl(g, split, gpl.trainer.TrainConfig(**dict(TRAIN)))
    by_id = {s.id: s for s in tracer.spans}
    build = [s for s in tracer.spans if s.name == "graph.build_graph"]
    assert build and by_id[build[0].parent].name == "synth.generate_planted"
    ops = [s for s in tracer.spans if s.name == "graph.propagation_operator"]
    assert {by_id[s.parent].name for s in ops} == {"propagation.lpl_gradient", "propagation.optimize_mask",
                                                   "trainer.run_gpl"}
    roots = [s for s in tracer.spans if s.parent is None]
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(sum(s.duration for s in roots), abs=1e-9)
    assert all(s.self_s >= 0 for s in tracer.spans)


def test_gpl_call_counts_are_exact_and_repeat():
    _, first = traced(TINY_GPL)
    _, second = traced(TINY_GPL)
    cfg = TINY_GPL.config(0)
    steps = cfg.warmup_steps + cfg.outer_epochs * cfg.clf_steps_per_epoch
    assert first["gnn.backward_and_step.calls"] == TINY_GPL.inputs * steps
    assert first["propagation.optimize_mask.calls"] == TINY_GPL.inputs * cfg.outer_epochs
    assert first["propagation.lpl_gradient.calls"] > 0
    counts = [k for k in first if k.endswith(".calls")]
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_baseline_runs_no_mask_code():
    _, m = traced(TINY_BASELINE)
    cfg = TINY_BASELINE.config(0)
    assert m["gnn.backward_and_step.calls"] == TINY_BASELINE.inputs * (
        cfg.warmup_steps + cfg.outer_epochs * cfg.clf_steps_per_epoch
    )
    for name in ("graph.propagation_operator", "propagation.optimize_mask", "propagation.lpl_gradient",
                 "propagation.propagate"):
        assert m[f"{name}.calls"] == 0, name
    assert m["cpe.estimate_prior.calls"] == TINY_BASELINE.inputs * cfg.outer_epochs
    assert m["cpe.estimate_prior.peak_mb"] > 0


def test_traced_and_untraced_fingerprints_match():
    r, _ = traced(TINY_GPL)
    plain, _, _ = run.measure(TINY_GPL, 0, 0.0, {})
    assert not plain.failures
    assert {s: res.digest for s, res in r.results.items()} == {s: res.digest for s, res in plain.results.items()}
    assert {s: res.fingerprint for s, res in r.results.items()} == {
        s: res.fingerprint for s, res in plain.results.items()
    }


def test_sweep_threads_match_serial_and_spans_keep_their_parent():
    r, m = traced(TINY_SWEEP)
    assert m["cli.sweep.thread_speedup"] > 0 and m["cli.sweep.threads1_s"] > 0
    assert m["synth.generate_planted.s"] > 0  # generation runs inside the jobs
    runs = [s for s in r.tracer.spans if s.name in ("trainer.run_gpl", "trainer.run_baseline")]
    by_id = {s.id: s for s in r.tracer.spans}
    assert {by_id[s.parent].name for s in runs} == {"cli.cmd_sweep"}
    assert len({s.thread for s in runs}) >= 2
    # the pool jobs' time is not charged to cmd_sweep waiting for them
    assert m["cli.self_pct"] < 50


def test_self_time_subtracts_children_on_other_threads(monkeypatch):
    monkeypatch.setenv("GPL_THREADS", "2")
    assert tracer_module.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    tracer = Tracer()
    with tracer:
        gpl.cli.main(["sweep", "--var", "h", "--values", "0.3,0.7", "--seeds", "0", "--n", "80",
                      "--method", "gpl", "--config", str(run.WORK / "tiny.cfg"), "--out", str(run.WORK / "tiny")])
    sweep = next(s for s in tracer.spans if s.name == "cli.cmd_sweep")
    children = [s for s in tracer.spans if s.parent == sweep.id]
    jobs = [s for s in children if s.thread != sweep.thread]
    assert jobs
    own = sum(s.duration for s in children if s.thread == sweep.thread)
    union = tracer_module.covered([(s.start, s.end) for s in jobs])
    assert sweep.self_s == pytest.approx(max(0.0, sweep.duration - own - union), abs=1e-9)


def test_sweep_rows_must_match_direct_library_calls():
    inp = run.make_input(TINY_SWEEP, 0)
    raw = run.call(TINY_SWEEP, inp, threads=1)
    run.check_sweep_rows(TINY_SWEEP, inp, run.check_output(TINY_SWEEP, inp, raw))
    head, first, *rest = raw.decode().splitlines(keepends=True)
    f = first.split(",")
    f[4] = repr(float(f[4]) / 2)  # f1: still in range, so only the library comparison sees it
    bad = run.check_output(TINY_SWEEP, inp, "".join([head, ",".join(f), *rest]).encode())
    with pytest.raises(check.CheckFailed):
        run.check_sweep_rows(TINY_SWEEP, inp, bad)


def test_output_check_catches_a_wrong_result():
    inp = run.make_input(TINY_GPL, 0)
    clf, mask, prior, trace = run.call(TINY_GPL, inp)
    good = run.check_output(TINY_GPL, inp, (clf, mask, prior, trace))
    rows = list(trace.rows)
    rows[-1] = dataclasses.replace(rows[-1], f1_u=rows[-1].f1_u + 1e-6)
    with pytest.raises(check.CheckFailed):
        run.check_output(TINY_GPL, inp, (clf, mask, prior, gpl.trainer.TrainTrace(tuple(rows))))
    mask.theta[0] += 1e-3
    with pytest.raises(check.CheckFailed):
        run.check_output(TINY_GPL, inp, (clf, mask, prior, trace))
    ref = {"values": dict(good.fingerprint, pi_hat=good.fingerprint["pi_hat"] + 1e-8), "digest": good.digest}
    with pytest.raises(check.CheckFailed):
        check.compare_reference(good.fingerprint, ref["values"], "input 0")


def test_sweep_check_catches_a_changed_row():
    inp = run.make_input(TINY_SWEEP, 0)
    raw = run.call(TINY_SWEEP, inp, threads=1)
    run.check_output(TINY_SWEEP, inp, raw)
    head, first, *rest = raw.decode().splitlines(keepends=True)
    f = first.split(",")
    f[2] = str(int(f[2]) + 7)
    with pytest.raises(check.CheckFailed):
        run.check_output(TINY_SWEEP, inp, "".join([head, ",".join(f), *rest]).encode())


def test_failed_call_makes_the_run_incorrect(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(gpl.trainer, "run_baseline", broken)
    r, metrics, extra = run.measure(TINY_BASELINE, 0, 0.0, {})
    assert len(r.failures) == r.attempted == TINY_BASELINE.inputs
    assert extra["failed_frac"][0] == 1.0

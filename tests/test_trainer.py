import re
import warnings

import numpy as np
import pytest

import gpl.gnn
import gpl.trainer
from gpl.gnn import Workspace, backward_and_step, init_classifier
from gpl.graph import build_graph, gcn_operator, init_mask
from gpl.synth import PlantedConfig, PUSplit, generate_planted, make_pu_split
from gpl.trainer import (
    TRACE_COLUMNS,
    TrainConfig,
    TrainError,
    run_baseline,
    run_gpl,
    trace_to_csv,
)

SMALL = dict(n=240, pi_p=0.25, avg_degree=8.0, feature_dim=8,
             feature_separation=2.0)
FAST = dict(outer_epochs=3, k_inner=20, clf_steps_per_epoch=150,
            warmup_steps=30)


def small_problem(h, graph_seed=3, split_seed=4):
    g = generate_planted(PlantedConfig(h=h, seed=graph_seed, **SMALL))
    return g, make_pu_split(g, 0.5, seed=split_seed)


class TestConfigValidation:
    def test_zero_epochs(self):
        with pytest.raises(TrainError):
            TrainConfig(outer_epochs=0)

    def test_negative_inner_steps(self):
        with pytest.raises(TrainError):
            TrainConfig(k_inner=-1)

    def test_negative_lr(self):
        with pytest.raises(TrainError):
            TrainConfig(lr_clf=-0.1)

    def test_no_hidden_units(self):
        with pytest.raises(TrainError):
            TrainConfig(hidden=0)

    @pytest.mark.parametrize("name", ["lr_mask", "lr_clf"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lr(self, name, value):
        with pytest.raises(TrainError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("bad, why", [
        (dict(alpha=0.0), "alpha must lie strictly"),
        (dict(alpha=1.5), "alpha must lie strictly"),
        (dict(alpha=float("nan")), "alpha must lie strictly"),
        (dict(k_prop=-1), "k_prop must be >= 0"),
        (dict(k_prop=2.5), "k_prop must be an integer, got 2.5"),  # was accepted
    ])
    def test_propagation_settings_checked(self, bad, why):
        # the valid ranges are PropagationConfig's, raised as TrainError
        with pytest.raises(TrainError, match=why):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad, why", [
        (dict(hidden=2.5), "hidden must be an integer, got 2.5"),
        (dict(outer_epochs=1.5), "outer_epochs must be an integer, got 1.5"),
        (dict(warmup_steps=True), "warmup_steps must be an integer, got True"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(seed=0.5), "seed must be an integer, got 0.5"),
    ])
    def test_counts_and_seed_are_checked_integers(self, bad, why):
        # a float count was accepted or failed inside the run; a negative
        # seed failed in numpy
        with pytest.raises(TrainError, match=f"^{re.escape(why)}$"):
            TrainConfig(**bad)

    def test_numpy_integers_accepted(self):
        assert TrainConfig(seed=np.int64(3), hidden=np.int32(4)).hidden == 4

    def test_zero_steps_allowed(self):
        TrainConfig(k_inner=0, warmup_steps=0, clf_steps_per_epoch=0)


class TestSplitValidation:
    def test_overlap_rejected(self):
        g, split = small_problem(0.3)
        u = split.U.copy()
        u[0] = split.P[0]  # same sizes, one node on both sides
        bad = PUSplit(P=split.P, U=u, pi_true=split.pi_true)
        with pytest.raises(TrainError, match="overlap"):
            run_gpl(g, bad, TrainConfig(**FAST))

    def test_incomplete_cover_rejected(self):
        g, split = small_problem(0.3)
        bad = PUSplit(P=split.P, U=split.U[:-1], pi_true=split.pi_true)
        with pytest.raises(TrainError, match="cover"):
            run_baseline(g, bad, TrainConfig(**FAST))


    @pytest.mark.parametrize("run", [run_gpl, run_baseline])
    @pytest.mark.parametrize("where, bad_id", [("P", 240), ("P", -1), ("U", 240)])
    def test_out_of_range_id_rejected(self, run, where, bad_id):
        g, split = small_problem(0.3)
        ids = {"P": split.P.copy(), "U": split.U.copy()}
        ids[where][-1] = bad_id  # n=240: the last valid id is 239
        bad = PUSplit(P=ids["P"], U=ids["U"], pi_true=split.pi_true)
        with pytest.raises(TrainError, match=f"split id {bad_id} is out of range for 240 nodes"):
            run(g, bad, TrainConfig(**FAST))

    def test_repeated_id_rejected(self):
        # same total length, so only the count per node shows the fault
        g, split = small_problem(0.3)
        p = split.P.copy()
        p[1] = p[0]
        bad = PUSplit(P=p, U=split.U, pi_true=split.pi_true)
        with pytest.raises(TrainError, match=f"split id {p[0]} appears more than once"):
            run_baseline(g, bad, TrainConfig(**FAST))

    @pytest.mark.parametrize("run", [run_gpl, run_baseline])
    @pytest.mark.parametrize("dtype", ["float64", "bool"])
    def test_non_integer_u_rejected_naming_dtype(self, run, dtype):
        # tests/test_node_ids.py feeds the same to P. A float set failed in
        # np.bincount; a mask was read as the ids 0 and 1.
        g, split = small_problem(0.3)
        if dtype == "bool":
            u = np.zeros(g.n, dtype=bool)
            u[split.U] = True
        else:
            u = split.U.astype(dtype)
        bad = PUSplit(P=split.P, U=u, pi_true=split.pi_true)
        with pytest.raises(TrainError, match=f"got dtype {dtype}$"):
            run(g, bad, TrainConfig(**FAST))

    def test_first_missing_node_named(self):
        g, split = small_problem(0.3)
        bad = PUSplit(P=split.P[split.P != 0], U=split.U[split.U != 0], pi_true=split.pi_true)
        with pytest.raises(TrainError, match="split does not cover node 0$"):
            run_gpl(g, bad, TrainConfig(**FAST))


class TestNullTraining:
    """Zero learning rates and zero inner steps reduce to pure inference."""

    def test_mask_and_classifier_untouched(self):
        g, split = small_problem(0.7)
        cfg = TrainConfig(outer_epochs=1, k_inner=0, lr_mask=0.0, lr_clf=0.0,
                          clf_steps_per_epoch=5, warmup_steps=5)
        clf, mask, prior, trace = run_gpl(g, split, cfg)
        assert np.array_equal(mask.theta, init_mask(g).theta)
        assert len(trace.rows) == 1
        assert np.isfinite(prior.pi_hat)
        # lr 0 leaves the seed init in place
        from gpl.gnn import init_classifier
        ref = init_classifier(g.features.shape[1], hidden=cfg.hidden,
                              seed=cfg.seed)
        assert np.array_equal(clf.W1, ref.W1)
        assert np.array_equal(clf.b2, ref.b2)


class TestScoring:
    """Each classifier fit hands back its final scores, so a run computes
    them once per fit, also when the fit takes no steps."""

    @pytest.mark.parametrize("steps", [0, 4])
    def test_one_forward_per_fit(self, monkeypatch, steps):
        calls = []
        real = gpl.trainer.scores

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gpl.trainer, "scores", counted)
        g, split = small_problem(0.7)
        cfg = TrainConfig(outer_epochs=2, k_inner=2, clf_steps_per_epoch=steps,
                          warmup_steps=3)
        _, _, _, trace = run_gpl(g, split, cfg)
        assert len(calls) == 1 + cfg.outer_epochs  # warm-up, then one refit per epoch
        assert all(np.isfinite(r.clf_loss) for r in trace.rows)
        calls.clear()
        run_baseline(g, split, cfg)
        assert len(calls) == 1 + cfg.outer_epochs


class TestIdsReadOncePerFit:
    @pytest.mark.parametrize("run", [run_gpl, run_baseline])
    def test_id_reads_do_not_grow_with_steps(self, monkeypatch, run):
        # the classifier reads its id sets when a fit builds its workspace,
        # never per Adam step, nor again for the loss of a fit with no steps
        real = gpl.gnn._node_ids
        reads = []

        def counted(*args, **kwargs):
            reads.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(gpl.gnn, "_node_ids", counted)
        g, split = small_problem(0.7)
        counts = []
        for steps in (0, 5, 50):
            reads.clear()
            run(g, split, TrainConfig(outer_epochs=2, k_inner=2, clf_steps_per_epoch=steps, warmup_steps=3))
            counts.append(len(reads))
        assert counts[0] == counts[1] == counts[2] > 0


class TestNonFinite:
    @pytest.mark.parametrize("run", [run_gpl, run_baseline])
    def test_nan_loss_names_the_column(self, monkeypatch, run):
        # both methods score an epoch with the same checks and messages
        real = gpl.trainer.backward_and_step

        def nan_loss(*args, **kwargs):
            return real(*args, **kwargs)[0], float("nan")

        monkeypatch.setattr(gpl.trainer, "backward_and_step", nan_loss)
        g, split = small_problem(0.3)
        cfg = TrainConfig(outer_epochs=1, k_inner=2, clf_steps_per_epoch=3, warmup_steps=2)
        with pytest.raises(TrainError, match="non-finite clf_loss at epoch 1"):
            run(g, split, cfg)


class TestTraceShape:
    def test_gpl_rows(self):
        g, split = small_problem(0.3)
        cfg = TrainConfig(**FAST)
        _, _, _, trace = run_gpl(g, split, cfg)
        assert len(trace.rows) == cfg.outer_epochs
        assert [r.epoch for r in trace.rows] == list(range(1, cfg.outer_epochs + 1))
        for r in trace.rows:
            for col in ("lpl_loss", "pi_hat", "clf_loss", "f1_u",
                        "mean_weight_homo", "mean_weight_hetero"):
                assert np.isfinite(getattr(r, col))

    def test_baseline_rows(self):
        g, split = small_problem(0.3)
        cfg = TrainConfig(**FAST)
        _, trace = run_baseline(g, split, cfg)
        assert len(trace.rows) == cfg.outer_epochs
        for r in trace.rows:
            assert np.isnan(r.lpl_loss)       # no mask objective in this run
            assert r.mean_weight_homo == 1.0  # unit weights throughout
            assert r.mean_weight_hetero == 1.0
            assert np.isfinite(r.f1_u)

    def test_csv_layout(self, tmp_path):
        g, split = small_problem(0.3)
        _, _, _, trace = run_gpl(g, split, TrainConfig(**FAST))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS) == (
            "epoch,lpl_loss,pi_hat,clf_loss,f1_u,mean_weight_homo,mean_weight_hetero"
        )
        assert len(lines) == 1 + len(trace.rows)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) == trace.rows[0].pi_hat


class TestDeterminism:
    def test_gpl_bitwise_repeatable(self):
        g, split = small_problem(0.7)
        cfg = TrainConfig(**FAST)
        _, mask1, prior1, tr1 = run_gpl(g, split, cfg)
        _, mask2, prior2, tr2 = run_gpl(g, split, cfg)
        assert np.array_equal(mask1.theta, mask2.theta)
        assert prior1.pi_hat == prior2.pi_hat
        assert tr1.rows == tr2.rows

    def test_csv_bytes_repeatable(self, tmp_path):
        g, split = small_problem(0.7)
        cfg = TrainConfig(**FAST)
        out = []
        for name in ("a.csv", "b.csv"):
            _, _, _, trace = run_gpl(g, split, cfg)
            p = tmp_path / name
            trace_to_csv(trace, p)
            out.append(p.read_bytes())
        assert out[0] == out[1]


class TestBaseline:
    def test_easy_homophilic_f1(self):
        g, split = small_problem(0.1)
        _, trace = run_baseline(g, split, TrainConfig(**FAST))
        assert trace.rows[-1].f1_u >= 0.7

    def test_all_positive_unlabeled_collapses(self):
        # every unlabeled node is a hidden positive; treating U as negative
        # caps F1 far below the 1.0 a correct labeling would reach
        rng = np.random.default_rng(5)
        n = 40
        edges = [(i, (i + 1) % n) for i in range(n - 1)]
        edges += [(i, i + 7) for i in range(n - 7)]
        X = rng.normal(1.0, 1.0, size=(n, 4))
        g = build_graph(n, edges, X, np.ones(n, dtype=int))
        P = np.arange(0, n, 2)
        split = PUSplit(P=P, U=np.setdiff1d(np.arange(n), P), pi_true=1.0)
        cfg = TrainConfig(outer_epochs=2, k_inner=5,
                          clf_steps_per_epoch=150, warmup_steps=20)
        _, trace = run_baseline(g, split, cfg)
        assert trace.rows[-1].f1_u <= 0.5

    def test_one_adam_state_spans_warmup_and_epochs(self):
        # one Adam state runs from warm-up through every epoch at the
        # constant rate lr_clf, so the run equals one unbroken hand loop
        g, split = small_problem(0.3)
        cfg = TrainConfig(outer_epochs=2, clf_steps_per_epoch=15,
                          warmup_steps=10, lr_clf=0.05)
        clf, trace = run_baseline(g, split, cfg)
        work = Workspace(gcn_operator(g, None), g.features, cfg.hidden, split.P, split.U)
        ref = init_classifier(g.features.shape[1], hidden=cfg.hidden,
                              seed=cfg.seed)
        losses = []
        for _ in range(10 + 2 * 15):
            ref, loss = backward_and_step(ref, work, cfg.lr_clf)
            losses.append(loss)
        assert clf.t == ref.t == 40
        for k, p in ref.params().items():
            np.testing.assert_array_equal(getattr(clf, k), p, err_msg=k)
        assert [r.clf_loss for r in trace.rows] == [losses[24], losses[39]]


class TestGplVsBaseline:
    def test_heterophilic_advantage(self):
        g, split = small_problem(0.7)
        cfg = TrainConfig(**FAST)
        _, tr_b = run_baseline(g, split, cfg)
        _, mask, prior, tr_g = run_gpl(g, split, cfg)
        assert tr_g.rows[-1].f1_u > tr_b.rows[-1].f1_u
        # the learned mask keeps same-class edges and drops cross-class ones
        last = tr_g.rows[-1]
        assert last.mean_weight_homo > last.mean_weight_hetero + 0.3
        assert abs(prior.pi_hat - split.pi_true) <= 0.15


def first_epoch_prior(g, split, cfg):
    """The estimate run_gpl bootstraps from, on the initial mask's operator."""
    return gpl.trainer._warm_start(g, split, cfg, gcn_operator(g, init_mask(g)))[1]


class TestFirstEpochPrior:
    def test_recovers_prior_after_warmup(self):
        g, split = small_problem(0.1)
        est = first_epoch_prior(g, split, TrainConfig(**FAST))
        assert abs(est.pi_hat - split.pi_true) <= 0.15

    def test_deterministic(self):
        g, split = small_problem(0.3)
        cfg = TrainConfig(**FAST)
        assert first_epoch_prior(g, split, cfg).pi_hat == \
            first_epoch_prior(g, split, cfg).pi_hat

    def test_constant_scores_warn_and_degenerate(self):
        # zero features on a regular graph (the normalized operator then
        # preserves constant vectors) pin every score to sigmoid(b2): the
        # ratio curve is flat and the estimate collapses to 1
        n = 20
        edges = [(i, (i + 1) % n) for i in range(n)]
        g = build_graph(n, edges, np.zeros((n, 3)),
                        np.array([1] * 10 + [-1] * 10))
        split = PUSplit(P=np.arange(5), U=np.arange(5, n), pi_true=5 / 15)
        cfg = TrainConfig(warmup_steps=0)
        with pytest.warns(UserWarning, match="near-constant"):
            est = first_epoch_prior(g, split, cfg)
        assert est.pi_hat == 1.0

    def test_warm_classifier_no_warning(self):
        g, split = small_problem(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first_epoch_prior(g, split, TrainConfig(**FAST))

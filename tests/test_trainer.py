import io
import warnings

import numpy as np
import pytest

from gpl.gnn import backward_and_step, init_classifier
from gpl.graph import build_graph, gcn_operator, init_mask
from gpl.synth import PlantedConfig, PUSplit, generate_planted, make_pu_split
from gpl.trainer import (
    TRACE_COLUMNS,
    TrainConfig,
    TrainError,
    first_epoch_prior,
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

    def test_unknown_schedule(self):
        with pytest.raises(TrainError, match="lr_schedule"):
            TrainConfig(lr_schedule="cosine")

    def test_zero_steps_allowed(self):
        TrainConfig(k_inner=0, warmup_steps=0, clf_steps_per_epoch=0)


class TestSplitValidation:
    def test_overlap_rejected(self):
        g, split = small_problem(0.3)
        u = split.U.copy()
        u[0] = split.P[0]  # same sizes, one node on both sides
        bad = PUSplit(P=split.P, U=u, r_p=split.r_p, pi_true=split.pi_true)
        with pytest.raises(TrainError, match="overlap"):
            run_gpl(g, bad, TrainConfig(**FAST))

    def test_incomplete_cover_rejected(self):
        g, split = small_problem(0.3)
        bad = PUSplit(P=split.P, U=split.U[:-1], r_p=split.r_p,
                      pi_true=split.pi_true)
        with pytest.raises(TrainError, match="cover"):
            run_baseline(g, bad, TrainConfig(**FAST))


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
        split = PUSplit(P=P, U=np.setdiff1d(np.arange(n), P),
                        r_p=0.5, pi_true=1.0)
        cfg = TrainConfig(outer_epochs=2, k_inner=5,
                          clf_steps_per_epoch=150, warmup_steps=20)
        _, trace = run_baseline(g, split, cfg)
        assert trace.rows[-1].f1_u <= 0.5

    def test_invsqrt_schedule_spans_warmup_and_epochs(self):
        # one Adam state runs from warm-up through every epoch, so the
        # t-th update of the run uses lr_clf / sqrt(t)
        g, split = small_problem(0.3)
        cfg = TrainConfig(outer_epochs=2, clf_steps_per_epoch=15,
                          warmup_steps=10, lr_clf=0.05, lr_schedule="invsqrt")
        clf, trace = run_baseline(g, split, cfg)
        op = gcn_operator(g, None)
        ref = init_classifier(g.features.shape[1], hidden=cfg.hidden,
                              seed=cfg.seed)
        losses = []
        for t in range(1, 10 + 2 * 15 + 1):
            ref, loss = backward_and_step(ref, op, g.features, split.P,
                                          split.U, cfg.lr_clf / np.sqrt(t))
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

    def test_invsqrt_schedule_runs(self):
        g, split = small_problem(0.3)
        cfg = TrainConfig(outer_epochs=2, k_inner=10, clf_steps_per_epoch=100,
                          warmup_steps=20, lr_clf=0.05, lr_schedule="invsqrt")
        _, _, prior, trace = run_gpl(g, split, cfg)
        assert np.isfinite(trace.rows[-1].f1_u)
        assert 0.0 <= prior.pi_hat <= 1.0


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
        split = PUSplit(P=np.arange(5), U=np.arange(5, n), r_p=0.5,
                        pi_true=5 / 15)
        cfg = TrainConfig(warmup_steps=0)
        with pytest.warns(UserWarning, match="near-constant"):
            est = first_epoch_prior(g, split, cfg)
        assert est.pi_hat == 1.0

    def test_warm_classifier_no_warning(self):
        g, split = small_problem(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first_epoch_prior(g, split, TrainConfig(**FAST))

import numpy as np
import pytest

import gpl.metrics as metrics
from gpl.graph import EdgeMask, GraphError, build_graph, gcn_operator, init_mask
from gpl.metrics import (
    check_aggregation_contraction,
    check_influence_sum,
    dpn_distance,
    edge_weight_means,
    f1_score,
    heterophily_influence,
    irreducibility_diagnostic,
)
from gpl.propagation import PropagationConfig, propagate
from gpl.synth import PlantedConfig, generate_planted

from conftest import random_graph


def star5():
    """Center 0 positive, leaf 1 negative, leaves 2-4 positive."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    x = np.array([[0.0], [1.0], [2.0], [2.0], [2.0]])
    labels = np.array([1, -1, 1, 1, 1])
    return build_graph(5, edges, x, labels)


def pure_beliefs(labels):
    e0 = np.zeros((len(labels), 2))
    e0[labels == 1] = (1.0, 0.0)
    e0[labels == -1] = (0.0, 1.0)
    return e0


def probe_beliefs(n, a):
    # influence-sum identity needs every node except the probed one to
    # start pure negative; the probe itself starts pure positive
    e0 = np.zeros((n, 2))
    e0[:, 1] = 1.0
    e0[a] = (1.0, 0.0)
    return e0


class TestF1:
    def test_perfect(self):
        truth = np.array([1, -1, 1, -1])
        assert f1_score(truth, truth, np.arange(4)) == 1.0

    def test_two_thirds(self):
        pred = np.array([1, 1, 1, -1])
        truth = np.array([1, 1, -1, 1])
        assert f1_score(pred, truth, np.arange(4)) == pytest.approx(2 / 3)

    def test_all_negative_is_zero(self):
        pred = np.array([-1, -1, -1])
        truth = np.array([1, -1, 1])
        assert f1_score(pred, truth, np.arange(3)) == 0.0

    def test_eval_set_restriction(self):
        pred = np.array([1, -1, 1, 1])
        truth = np.array([1, 1, 1, -1])
        assert f1_score(pred, truth, np.array([0, 2])) == 1.0

    def test_relabel_symmetry(self):
        rng = np.random.default_rng(0)
        pred = rng.choice([-1, 1], size=12)
        truth = rng.choice([-1, 1], size=12)
        perm = rng.permutation(12)
        a = f1_score(pred, truth, np.arange(12))
        b = f1_score(pred[perm], truth[perm], np.arange(12))
        assert a == pytest.approx(b)


class TestHeterophilyInfluence:
    def test_disconnected_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 2)),
                        np.array([1, -1, 1, -1]))
        e0 = pure_beliefs(g.labels)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        assert heterophily_influence(g, None, e0, cfg, 0, 2) == 0.0

    def test_two_node_slope(self, path2):
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = PropagationConfig(alpha=0.5, k_prop=1)
        hi = heterophily_influence(path2, None, e0, cfg, 0, 1)
        assert hi == pytest.approx(0.5, abs=1e-8)

    def test_beyond_propagation_radius(self, path3):
        e0 = pure_beliefs(path3.labels)
        cfg = PropagationConfig(alpha=0.5, k_prop=1)
        assert heterophily_influence(path3, None, e0, cfg, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_same_node_rejected(self, path2):
        with pytest.raises(ValueError):
            heterophily_influence(path2, None, pure_beliefs(path2.labels),
                                  PropagationConfig(alpha=0.5, k_prop=1), 1, 1)


class TestInfluenceSum:
    def test_star_identity(self):
        g = star5()
        e0 = probe_beliefs(g.n, 0)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        total, delta, residual = check_influence_sum(g, init_mask(g, 0.7), e0, cfg, a=0)
        assert residual <= 1e-6
        assert delta > 0.0

    def test_disconnected_target(self):
        g = build_graph(3, [(1, 2)], np.zeros((3, 2)), np.array([1, -1, -1]))
        e0 = probe_beliefs(g.n, 0)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        total, delta, residual = check_influence_sum(g, None, e0, cfg, a=0)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_random_batch(self):
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_graph(rng, 10)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            a = int(rng.integers(g.n))
            e0 = probe_beliefs(g.n, a)
            _, _, residual = check_influence_sum(g, mask, e0, cfg, a)
            assert residual <= 1e-6

    def test_identity_needs_pure_negative_start(self):
        # the decomposition is tight only when every non-probed node starts
        # pure negative: flipping one leaf to pure positive makes the net
        # shift strictly smaller than the summed influences, so the checker
        # reports a real residual rather than being trivially zero
        g = star5()
        e0 = probe_beliefs(g.n, 0)
        e0[2] = (1.0, 0.0)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        total, delta, residual = check_influence_sum(g, init_mask(g, 0.7), e0, cfg, a=0)
        assert residual > 1e-6
        assert delta < total


class TestDpnDistance:
    def test_no_cross_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 1)),
                        np.array([1, 1, -1, -1]))
        assert dpn_distance(np.arange(4.0), g) == 0.0

    def test_hand_value(self, path2):
        # one cross edge, operator entry 1.0 on a 2-path; scale the mask
        # case via a 3-node variant where the P->N entry is 0.5
        g = build_graph(3, [(0, 1), (0, 2)], np.zeros((3, 1)),
                        np.array([1, -1, 1]))
        x = np.array([1.0, 0.0, 1.0])
        # row 0 splits mass 0.5/0.5; cross pair (0,1) has weight 0.5
        assert dpn_distance(x, g) == pytest.approx(0.5 * 0.5 * 1.0)

    def test_identical_embeddings(self):
        g = star5()
        assert dpn_distance(np.ones(5), g) == 0.0

    def test_multidim_decomposes(self):
        g = star5()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        total = dpn_distance(x, g)
        per_dim = sum(dpn_distance(x[:, j], g) for j in range(3))
        assert total == pytest.approx(per_dim, abs=1e-12)


class TestEdgeWeightMeans:
    def test_hand_value(self, path3):
        # both edges of the path 0-1-2 cross classes
        mask = init_mask(path3, w0=0.25)
        homo, hetero = edge_weight_means(path3, mask)
        assert np.isnan(homo)
        assert hetero == pytest.approx(0.25)

    def test_mask_length_checked(self, path3):
        with pytest.raises(GraphError, match="mask has 3 weights, graph has 2 edges"):
            edge_weight_means(path3, EdgeMask(np.zeros(3)))


class TestContraction:
    def test_star_counterexample_reported(self):
        # the contraction claim is not universally true; the checker must
        # report this instance's increase rather than mask it
        g = star5()
        before, after = check_aggregation_contraction(g, None, g.features)
        assert before == pytest.approx(0.125)
        assert after == pytest.approx(0.3828125)
        assert after > before

    def test_constant_embeddings(self):
        g = star5()
        before, after = check_aggregation_contraction(g, None, np.ones(5))
        assert before == 0.0
        assert after == pytest.approx(0.0, abs=1e-15)

    def test_suite_instances_contract(self):
        # the pinned validation generator stays in the regime where the
        # inequality does hold; 20 quick draws here, the full set in the
        # acceptance run
        rng = np.random.default_rng(0)
        for _ in range(20):
            g, mask, x = metrics.contraction_instance(rng)
            before, after = check_aggregation_contraction(g, mask, x)
            assert after <= before + 1e-9


class TestIrreducibility:
    def test_max_at_zero_quantile(self):
        assert irreducibility_diagnostic([0.2, 0.5, 0.7], quantile=0.0) == pytest.approx(0.7)

    def test_score_range_checked(self):
        with pytest.raises(ValueError):
            irreducibility_diagnostic([1.2])

    def test_heterophily_lowers_confidence_ceiling(self):
        # propagate half-revealed labels and read the positive belief the
        # hidden positives can attain: near 1 on the homophilic graph,
        # visibly capped under heavy cross-class mixing
        diags = {}
        for h in (0.0, 0.9):
            cfg = PlantedConfig(n=400, pi_p=0.5, h=h, avg_degree=8,
                                feature_dim=4, feature_separation=1.0, seed=0)
            g = generate_planted(cfg)
            perm = np.random.default_rng(7).permutation(g.n)
            revealed, hidden = perm[:200], perm[200:]
            e0 = np.full((g.n, 2), 0.5)
            e0[revealed[g.labels[revealed] == 1]] = (1.0, 0.0)
            e0[revealed[g.labels[revealed] == -1]] = (0.0, 1.0)
            pcf = PropagationConfig(alpha=0.2, k_prop=20)
            out = propagate(gcn_operator(g, None), e0, pcf)
            hp = hidden[g.labels[hidden] == 1]
            diags[h] = irreducibility_diagnostic(np.clip(out[hp, 0], 0.0, 1.0))
        assert diags[0.0] >= 0.9
        assert diags[0.9] <= diags[0.0] - 0.15

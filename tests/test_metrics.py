import numpy as np
import pytest
from scipy.special import logit

import gpl.metrics as metrics
from gpl.graph import EdgeMask, GraphError, build_graph, init_mask, propagation_operator
from gpl.metrics import (
    check_aggregation_contraction,
    check_influence_sum,
    dpn_distance,
    edge_weight_means,
    f1_score,
    heterophily_influence,
    irreducibility_checks,
    irreducibility_diagnostic,
    random_test_graph,
)
from gpl.propagation import PropagationConfig


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

    @pytest.mark.parametrize("eval_set, dtype", [([True, False, True], "bool"), ([0.0, 2.7], "float64")])
    def test_mask_or_float_eval_set_rejected(self, eval_set, dtype):
        # a mask would score the nodes 1, 0, 1
        pred, truth = np.array([1, -1, 1]), np.array([1, 1, 1])
        with pytest.raises(GraphError, match=f"got dtype {dtype}"):
            f1_score(pred, truth, eval_set)
        assert f1_score(pred, truth, [0, 2]) == 1.0

    def test_lengths_must_agree(self):
        with pytest.raises(GraphError, match="pred has 3 entries but truth has 1"):
            f1_score(np.array([1, 1, 1]), np.array([1]), [2])
        with pytest.raises(GraphError, match="pred has 1 entries but truth has 3"):
            f1_score(np.array([1]), np.array([1, 1, 1]), [0])

    def test_empty_eval_set_is_a_graph_error(self):
        truth = np.array([1, -1])
        with pytest.raises(GraphError, match="eval_set is empty"):
            f1_score(truth, truth, [])


class TestHeterophilyInfluence:
    def test_disconnected_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 2)),
                        np.array([1, -1, 1, -1]))
        e0 = pure_beliefs(g.labels)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        assert heterophily_influence(propagation_operator(g, None), e0, cfg, 0, 2) == 0.0

    def test_two_node_slope(self, path2):
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = PropagationConfig(alpha=0.5, k_prop=1)
        hi = heterophily_influence(propagation_operator(path2, None), e0, cfg, 0, 1)
        assert hi == pytest.approx(0.5, abs=1e-8)

    def test_beyond_propagation_radius(self, path3):
        e0 = pure_beliefs(path3.labels)
        cfg = PropagationConfig(alpha=0.5, k_prop=1)
        op = propagation_operator(path3, None)
        assert heterophily_influence(op, e0, cfg, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_same_node_rejected(self, path2):
        with pytest.raises(ValueError):
            heterophily_influence(propagation_operator(path2, None), pure_beliefs(path2.labels),
                                  PropagationConfig(alpha=0.5, k_prop=1), 1, 1)


    @pytest.mark.parametrize("a, b, bad", [(3, 0, 3), (-1, 0, -1), (0, 3, 3), (0, -1, -1)])
    def test_out_of_range_node_rejected(self, path3, a, b, bad):
        # -1 would otherwise read node 2's row
        with pytest.raises(ValueError, match=f"node id {bad} is out of range for 3 nodes"):
            heterophily_influence(propagation_operator(path3, None), pure_beliefs(path3.labels),
                                  PropagationConfig(alpha=0.5, k_prop=1), a, b)

    @pytest.mark.parametrize("a, b", [(True, 0), (0, True)])
    def test_boolean_node_rejected(self, path3, a, b):
        # [True, 0] reads as int64, where True would be node 1
        with pytest.raises(ValueError, match="not boolean masks"):
            heterophily_influence(propagation_operator(path3, None), pure_beliefs(path3.labels),
                                  PropagationConfig(alpha=0.5, k_prop=1), a, b)


class TestInfluenceSum:
    def test_star_identity(self):
        g = star5()
        e0 = probe_beliefs(g.n, 0)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        total, delta, residual = check_influence_sum(g, EdgeMask(np.full(g.m, logit(0.7))), e0, cfg, a=0)
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
            g = random_test_graph(rng, 10, 0.3)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            a = int(rng.integers(g.n))
            e0 = probe_beliefs(g.n, a)
            _, _, residual = check_influence_sum(g, mask, e0, cfg, a)
            assert residual <= 1e-6

    @pytest.mark.parametrize("a", [5, -1])
    def test_out_of_range_target_rejected(self, a):
        g = star5()
        with pytest.raises(ValueError, match=f"node id {a} is out of range for 5 nodes"):
            check_influence_sum(g, None, probe_beliefs(g.n, 0), PropagationConfig(alpha=0.5, k_prop=2), a)

    def test_identity_needs_pure_negative_start(self):
        # the decomposition is tight only when every non-probed node starts
        # pure negative: flipping one leaf to pure positive makes the net
        # shift strictly smaller than the summed influences, so the checker
        # reports a real residual rather than being trivially zero
        g = star5()
        e0 = probe_beliefs(g.n, 0)
        e0[2] = (1.0, 0.0)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        total, delta, residual = check_influence_sum(g, EdgeMask(np.full(g.m, logit(0.7))), e0, cfg, a=0)
        assert residual > 1e-6
        assert delta < total


class TestDpnDistance:
    def test_no_cross_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 1)),
                        np.array([1, 1, -1, -1]))
        assert dpn_distance(np.arange(4.0), g, propagation_operator(g, None)) == 0.0

    def test_hand_value(self, path2):
        # one cross edge, operator entry 1.0 on a 2-path; scale the mask
        # case via a 3-node variant where the P->N entry is 0.5
        g = build_graph(3, [(0, 1), (0, 2)], np.zeros((3, 1)),
                        np.array([1, -1, 1]))
        x = np.array([1.0, 0.0, 1.0])
        # row 0 splits mass 0.5/0.5; cross pair (0,1) has weight 0.5
        assert dpn_distance(x, g, propagation_operator(g, None)) == pytest.approx(0.5 * 0.5 * 1.0)

    def test_operator_of_another_graph_rejected(self, path2):
        with pytest.raises(ValueError, match="does not match a graph of 5 nodes"):
            dpn_distance(np.ones(5), star5(), propagation_operator(path2, None))

    def test_identical_embeddings(self):
        g = star5()
        assert dpn_distance(np.ones(5), g, propagation_operator(g, None)) == 0.0

    def test_multidim_decomposes(self):
        g = star5()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        op = propagation_operator(g, None)
        total = dpn_distance(x, g, op)
        per_dim = sum(dpn_distance(x[:, j], g, op) for j in range(3))
        assert total == pytest.approx(per_dim, abs=1e-12)


class TestEdgeWeightMeans:
    def test_hand_value(self, path3):
        # both edges of the path 0-1-2 cross classes
        mask = EdgeMask(np.full(path3.m, logit(0.25)))
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
    def test_reads_the_099_quantile(self):
        # linear interpolation at position 0.99 * (3 - 1) = 1.98: 0.5 + 0.98 * 0.2
        assert irreducibility_diagnostic([0.2, 0.5, 0.7]) == pytest.approx(0.696)

    def test_score_range_checked(self):
        with pytest.raises(ValueError):
            irreducibility_diagnostic([1.2])

    def test_empty_score_set_rejected(self):
        with pytest.raises(ValueError, match="score set is empty"):
            irreducibility_diagnostic([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            irreducibility_diagnostic([0.2, bad, 0.9])

    def test_heterophily_lowers_confidence_ceiling(self):
        # hidden positives reach a confident belief on the homophilic graph
        # and stay visibly capped under heavy cross-class mixing
        homophilic, gap = irreducibility_checks()
        assert homophilic.passed and gap.passed, (homophilic, gap)

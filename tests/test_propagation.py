import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpl.graph import init_mask, propagation_operator
from gpl.propagation import (
    PropagationConfig,
    PropagationError,
    init_beliefs,
    lpl_gradient,
    lpl_loss,
    optimize_mask,
    propagate,
)
from gpl.synth import PlantedConfig, PUSplit, generate_planted, make_pu_split

from conftest import random_graph


def split_of(n, P):
    P = np.asarray(sorted(P), dtype=np.int64)
    U = np.setdiff1d(np.arange(n), P)
    return PUSplit(P=P, U=U, r_p=1.0, pi_true=0.0)


class TestInitBeliefs:
    def test_positive_rows(self):
        e0 = init_beliefs(split_of(3, [0]))
        np.testing.assert_allclose(e0, [[1, 0], [0.5, 0.5], [0.5, 0.5]])

    def test_identified_negative(self):
        e0 = init_beliefs(split_of(3, [0]), negatives=[2])
        np.testing.assert_allclose(e0, [[1, 0], [0.5, 0.5], [0, 1]])

    def test_all_unlabeled(self):
        e0 = init_beliefs(split_of(3, []))
        np.testing.assert_allclose(e0, np.full((3, 2), 0.5))

    def test_identified_positives_and_negatives(self):
        e0 = init_beliefs(split_of(3, [0]), positives=np.array([1]), negatives=[2])
        np.testing.assert_allclose(e0, [[1, 0], [1, 0], [0, 1]])

    def test_identified_must_be_unlabeled(self):
        # observed positives and out-of-range ids alike
        for ids in ({"negatives": [0]}, {"positives": [0]},
                    {"negatives": [3]}, {"positives": [1, -1]}):
            with pytest.raises(PropagationError, match="not unlabeled"):
                init_beliefs(split_of(3, [0]), **ids)

    def test_conflicting_signs_rejected(self):
        with pytest.raises(PropagationError, match="node 1 identified as both"):
            init_beliefs(split_of(3, [0]), positives=[1, 2], negatives=[1])

    def test_positional_mapping_rejected(self):
        # a {node: sign} mapping must not be read as a set of positives
        with pytest.raises(TypeError):
            init_beliefs(split_of(3, [0]), {2: -1})


class TestPropagate:
    def test_zero_iterations(self, path3):
        e0 = init_beliefs(split_of(3, [0]))
        op = propagation_operator(path3, None)
        out = propagate(op, e0, PropagationConfig(alpha=0.5, k_prop=0))
        np.testing.assert_array_equal(out, e0)

    def test_retention_limit(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 5)
        e0 = init_beliefs(split_of(5, [0, 2]))
        op = propagation_operator(g, None)
        out = propagate(op, e0, PropagationConfig(alpha=0.999, k_prop=5))
        assert np.abs(out - e0).max() < 0.01

    def test_two_node_mix(self, path2):
        op = propagation_operator(path2, None)
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = propagate(op, e0, PropagationConfig(alpha=0.5, k_prop=1))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_dense_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_graph(rng, 9)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            op = propagation_operator(g, mask)
            cfg = PropagationConfig(alpha=0.3, k_prop=4)
            e0 = init_beliefs(split_of(9, [0, 3]), negatives=[5])
            dense = op.toarray()
            E = e0.copy()
            for _ in range(cfg.k_prop):
                E = cfg.alpha * E + (1 - cfg.alpha) * dense @ E
            np.testing.assert_allclose(propagate(op, e0, cfg), E, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(0.01, 0.99),
           k=st.integers(0, 6))
    def test_row_sums_preserved(self, seed, alpha, k):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 12)))
        mask = init_mask(g)
        mask.theta[:] = rng.normal(size=g.m)
        e0 = init_beliefs(split_of(g.n, [0]))
        out = propagate(propagation_operator(g, mask), e0,
                        PropagationConfig(alpha=alpha, k_prop=k))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)
        assert (out >= -1e-12).all()

    def test_alpha_bounds_enforced(self):
        with pytest.raises(PropagationError):
            PropagationConfig(alpha=1.0, k_prop=3)
        with pytest.raises(PropagationError):
            PropagationConfig(alpha=0.0, k_prop=3)


class TestLplLoss:
    def test_uniform_positive(self):
        b = np.array([[0.5, 0.5]])
        assert lpl_loss(b, [0]) == pytest.approx(np.log(0.5))

    def test_floor_clamp(self):
        b = np.array([[1.0, 0.0]])
        assert lpl_loss(b, [0]) == pytest.approx(np.log(1e-12), rel=1e-6)

    def test_mixed_anchors(self):
        b = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
        want = 0.5 * (np.log(0.2) + np.log(0.4)) + np.log(0.3)
        got = lpl_loss(b, [0, 1], [2])
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(-2.46684, abs=1e-5)

    def test_empty_positive_errors(self):
        with pytest.raises(PropagationError, match="empty"):
            lpl_loss(np.full((2, 2), 0.5), [])

    def test_overlap_rejected(self):
        with pytest.raises(PropagationError, match="overlap"):
            lpl_loss(np.full((2, 2), 0.5), [0], [0])

    def test_negative_term_dropped_when_absent(self):
        b = np.array([[0.7, 0.3], [0.2, 0.8]])
        assert lpl_loss(b, [0]) == pytest.approx(np.log(0.3))


def fd_gradient(g, mask, e0, cfg, pos, neg, step=1e-5):
    grad = np.zeros(g.m)
    for e in range(g.m):
        for sgn in (+1, -1):
            m2 = mask.copy()
            m2.theta[e] += sgn * step
            b = propagate(propagation_operator(g, m2), e0, cfg)
            grad[e] += sgn * lpl_loss(b, pos, neg)
    return grad / (2 * step)


class TestLplGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        for _ in range(6):
            g = random_graph(rng, 8)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            split = split_of(8, [0, 1])
            e0 = init_beliefs(split, negatives=[6, 7])
            got = lpl_gradient(g, mask, e0, cfg, [0, 1], [6, 7])
            want = fd_gradient(g, mask, e0, cfg, [0, 1], [6, 7])
            big = np.abs(want) > 1e-8
            if big.any():
                rel = np.abs(got[big] - want[big]) / np.abs(want[big])
                assert rel.max() < 1e-4

    def test_retention_dominated_belief_sensitivity_tiny(self):
        # alpha ~ 1: beliefs barely move, so their sensitivity to any edge
        # parameter is O(1-alpha). The log-loss gradient itself is scale-free
        # (d log(c*x) = dx/x cancels c), so the bound lives on the beliefs.
        rng = np.random.default_rng(2)
        g = random_graph(rng, 5)
        mask = init_mask(g)
        cfg = PropagationConfig(alpha=0.999, k_prop=2)
        e0 = init_beliefs(split_of(5, [0]), negatives=[4])
        step = 1e-4
        sens = 0.0
        for e in range(g.m):
            m_hi, m_lo = mask.copy(), mask.copy()
            m_hi.theta[e] += step
            m_lo.theta[e] -= step
            b_hi = propagate(propagation_operator(g, m_hi), e0, cfg)
            b_lo = propagate(propagation_operator(g, m_lo), e0, cfg)
            sens = max(sens, np.abs(b_hi - b_lo).max() / (2 * step))
        assert sens <= 1e-3
        grad = lpl_gradient(g, mask, e0, cfg, [0], [4])
        assert np.isfinite(grad).all()

    def test_zero_at_loss_floor(self):
        # every node anchored positive at belief [1,0]: clamped log is flat
        rng = np.random.default_rng(3)
        g = random_graph(rng, 5)
        mask = init_mask(g)
        split = split_of(5, range(5))
        e0 = init_beliefs(split)
        cfg = PropagationConfig(alpha=0.5, k_prop=0)
        grad = lpl_gradient(g, mask, e0, cfg, list(range(5)), [])
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_finite(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, 10)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            cfg = PropagationConfig(alpha=0.6, k_prop=4)
            e0 = init_beliefs(split_of(10, [0]), negatives=[9])
            grad = lpl_gradient(g, mask, e0, cfg, [0], [9])
            assert np.isfinite(grad).all()


class TestOptimizeMask:
    def test_null_update(self, path3):
        mask = init_mask(path3)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        e0 = init_beliefs(split_of(3, [0]), negatives=[1])
        out = optimize_mask(path3, mask, e0, cfg, [0], [1], steps=1, lr=0.0)
        np.testing.assert_array_equal(out.theta, mask.theta)

    def test_separates_edge_classes(self):
        cfg = PlantedConfig(n=120, pi_p=0.5, h=0.4, avg_degree=8,
                            feature_dim=4, feature_separation=1.0, seed=3)
        g = generate_planted(cfg)
        split = make_pu_split(g, 1.0, seed=3)
        # full observation: U holds only negatives, so anchor them all
        e0 = init_beliefs(split, negatives=split.U)
        pcfg = PropagationConfig(alpha=0.5, k_prop=10)
        mask = optimize_mask(g, init_mask(g), e0, pcfg, split.P, split.U,
                             steps=200, lr=0.1)
        w = mask.weights()
        lab = g.labels
        het = lab[g.edges[:, 0]] != lab[g.edges[:, 1]]
        assert w[het].mean() < w[~het].mean()

    def test_loss_never_increases(self):
        pcfg = PropagationConfig(alpha=0.5, k_prop=3)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_graph(rng, 10)
            split = split_of(10, [0, 1])
            e0 = init_beliefs(split, negatives=[8, 9])
            m0 = init_mask(g)
            before = lpl_loss(
                propagate(propagation_operator(g, m0), e0, pcfg), [0, 1], [8, 9])
            m1 = optimize_mask(g, m0, e0, pcfg, [0, 1], [8, 9], steps=15, lr=0.3)
            after = lpl_loss(
                propagate(propagation_operator(g, m1), e0, pcfg), [0, 1], [8, 9])
            assert after <= before + 1e-12

    def test_input_mask_not_mutated(self, path3):
        mask = init_mask(path3)
        theta0 = mask.theta.copy()
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        e0 = init_beliefs(split_of(3, [0]), negatives=[1])
        optimize_mask(path3, mask, e0, cfg, [0], [1], steps=5, lr=0.5)
        np.testing.assert_array_equal(mask.theta, theta0)

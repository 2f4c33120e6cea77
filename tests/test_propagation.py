import numpy as np
import pytest

import gpl.propagation
from gpl.graph import _Layout
from hypothesis import given, settings
from hypothesis import strategies as st

from gpl.graph import EdgeMask, build_graph, init_mask, propagation_operator
from gpl.metrics import fd_lpl_gradient, random_test_graph
from gpl.propagation import (
    PropagationConfig,
    PropagationError,
    _anchor_beliefs,
    lpl_gradient,
    lpl_loss,
    optimize_mask,
    propagate,
)
from gpl.synth import PlantedConfig, generate_planted, make_pu_split


class TestInitBeliefs:
    """E_0, the initial beliefs the anchor sets define."""

    def test_positive_rows(self):
        e0 = _anchor_beliefs(3, [0], [])
        np.testing.assert_allclose(e0, [[1, 0], [0.5, 0.5], [0.5, 0.5]])

    def test_identified_negative(self):
        e0 = _anchor_beliefs(3, [0], [2])
        np.testing.assert_allclose(e0, [[1, 0], [0.5, 0.5], [0, 1]])

    def test_all_unlabeled(self):
        e0 = _anchor_beliefs(3, [], [])
        np.testing.assert_allclose(e0, np.full((3, 2), 0.5))

    def test_identified_positives_and_negatives(self):
        e0 = _anchor_beliefs(3, np.array([0, 1]), [2])
        np.testing.assert_allclose(e0, [[1, 0], [1, 0], [0, 1]])


class TestPropagate:
    def test_zero_iterations(self, path3):
        e0 = _anchor_beliefs(3, [0], [])
        op = propagation_operator(path3, None)
        out = propagate(op, e0, PropagationConfig(alpha=0.5, k_prop=0))
        assert len(out) == 1
        np.testing.assert_array_equal(out[0], e0)

    def test_retention_limit(self):
        rng = np.random.default_rng(0)
        g = random_test_graph(rng, 5, 0.3)
        e0 = _anchor_beliefs(5, [0, 2], [])
        op = propagation_operator(g, None)
        out = propagate(op, e0, PropagationConfig(alpha=0.999, k_prop=5))[-1]
        assert np.abs(out - e0).max() < 0.01

    def test_two_node_mix(self, path2):
        op = propagation_operator(path2, None)
        e0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = propagate(op, e0, PropagationConfig(alpha=0.5, k_prop=1))[-1]
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_dense_oracle_equivalence(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_test_graph(rng, 9, 0.3)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            op = propagation_operator(g, mask)
            cfg = PropagationConfig(alpha=0.3, k_prop=4)
            e0 = _anchor_beliefs(9, [0, 3], [5])
            dense = op.toarray()
            E = e0.copy()
            for _ in range(cfg.k_prop):
                E = cfg.alpha * E + (1 - cfg.alpha) * dense @ E
            np.testing.assert_allclose(propagate(op, e0, cfg)[-1], E, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(0.01, 0.99),
           k=st.integers(0, 6))
    def test_row_sums_preserved(self, seed, alpha, k):
        rng = np.random.default_rng(seed)
        g = random_test_graph(rng, int(rng.integers(2, 12)), 0.3)
        mask = init_mask(g)
        mask.theta[:] = rng.normal(size=g.m)
        e0 = _anchor_beliefs(g.n, [0], [])
        out = propagate(propagation_operator(g, mask), e0,
                        PropagationConfig(alpha=alpha, k_prop=k))[-1]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)
        assert (out >= -1e-12).all()

    @pytest.mark.parametrize("k_prop, why", [(2.5, "k_prop must be an integer, got 2.5"),
                                             (True, "k_prop must be an integer, got True")])
    def test_k_prop_is_a_checked_integer(self, k_prop, why):
        with pytest.raises(PropagationError, match=why):
            PropagationConfig(alpha=0.5, k_prop=k_prop)

    def test_alpha_bounds_enforced(self):
        with pytest.raises(PropagationError):
            PropagationConfig(alpha=1.0, k_prop=3)
        with pytest.raises(PropagationError):
            PropagationConfig(alpha=0.0, k_prop=3)


class TestLplLoss:
    def test_uniform_positive(self):
        b = np.array([[0.5, 0.5]])
        assert lpl_loss(b, [0], []) == pytest.approx(np.log(0.5))

    def test_floor_clamp(self):
        b = np.array([[1.0, 0.0]])
        assert lpl_loss(b, [0], []) == pytest.approx(np.log(1e-12), rel=1e-6)

    def test_mixed_anchors(self):
        b = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
        want = 0.5 * (np.log(0.2) + np.log(0.4)) + np.log(0.3)
        got = lpl_loss(b, [0, 1], [2])
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(-2.46684, abs=1e-5)

    def test_empty_positive_errors(self):
        with pytest.raises(PropagationError, match="empty"):
            lpl_loss(np.full((2, 2), 0.5), [], [])

    def test_overlap_rejected(self):
        with pytest.raises(PropagationError, match="overlap"):
            lpl_loss(np.full((2, 2), 0.5), [0], [0])

    def test_out_of_range_id_rejected(self):
        with pytest.raises(PropagationError, match="anchor id 2 is out of range for 2 nodes"):
            lpl_loss(np.full((2, 2), 0.5), [0], [2])

    def test_negative_term_dropped_when_absent(self):
        b = np.array([[0.7, 0.3], [0.2, 0.8]])
        assert lpl_loss(b, [0], []) == pytest.approx(np.log(0.3))


def gradient(g, mask, cfg, pos, neg, e0=None):
    """lpl_gradient on the belief states propagate returns from e0, by
    default the E_0 the anchor sets define."""
    if e0 is None:
        e0 = _anchor_beliefs(g.n, pos, neg)
    return lpl_gradient(g, mask, propagate(propagation_operator(g, mask), e0, cfg), cfg, pos, neg)


class TestLplGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        for _ in range(6):
            g = random_test_graph(rng, 8, 0.3)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            got = gradient(g, mask, cfg, [0, 1], [6, 7])
            want = fd_lpl_gradient(g, mask, cfg, [0, 1], [6, 7])
            big = np.abs(want) > 1e-8
            if big.any():
                rel = np.abs(got[big] - want[big]) / np.abs(want[big])
                assert rel.max() < 1e-4

    def test_retention_dominated_belief_sensitivity_tiny(self):
        # alpha ~ 1: beliefs barely move, so their sensitivity to any edge
        # parameter is O(1-alpha). The log-loss gradient itself is scale-free
        # (d log(c*x) = dx/x cancels c), so the bound lives on the beliefs.
        rng = np.random.default_rng(2)
        g = random_test_graph(rng, 5, 0.3)
        mask = init_mask(g)
        cfg = PropagationConfig(alpha=0.999, k_prop=2)
        e0 = _anchor_beliefs(5, [0], [4])
        step = 1e-4
        sens = 0.0
        for e in range(g.m):
            m_hi, m_lo = EdgeMask(mask.theta.copy()), EdgeMask(mask.theta.copy())
            m_hi.theta[e] += step
            m_lo.theta[e] -= step
            b_hi = propagate(propagation_operator(g, m_hi), e0, cfg)[-1]
            b_lo = propagate(propagation_operator(g, m_lo), e0, cfg)[-1]
            sens = max(sens, np.abs(b_hi - b_lo).max() / (2 * step))
        assert sens <= 1e-3
        grad = gradient(g, mask, cfg, [0], [4])
        assert np.isfinite(grad).all()

    def test_zero_at_loss_floor(self):
        # every node anchored positive at belief [1,0]: clamped log is flat
        rng = np.random.default_rng(3)
        g = random_test_graph(rng, 5, 0.3)
        mask = init_mask(g)
        cfg = PropagationConfig(alpha=0.5, k_prop=0)
        grad = gradient(g, mask, cfg, list(range(5)), [])
        np.testing.assert_array_equal(grad, 0.0)

    def test_no_slope_below_the_log_floor(self):
        # node 0 is anchored positive between a negative and a positive
        # neighbour; at theta=-30 on edge (0, 1) its wrong-class belief is
        # 9.4e-14, below LOG_EPS, where lpl_gradient takes the slope of
        # log(max(b, eps)), zero, while lpl_loss's log(b + eps) still slopes
        g = build_graph(3, [(0, 1), (0, 2)], np.zeros((3, 1)), np.array([1, -1, 1]))
        cfg = PropagationConfig(alpha=0.5, k_prop=1)
        below = EdgeMask(np.array([-30.0, 0.0]))
        assert np.abs(gradient(g, below, cfg, [0, 2], [1])).max() < 1e-12
        assert fd_lpl_gradient(g, below, cfg, [0, 2], [1])[0] > 0.01
        above = EdgeMask(np.array([-20.0, 0.0]))
        np.testing.assert_allclose(gradient(g, above, cfg, [0, 2], [1]),
                                   fd_lpl_gradient(g, above, cfg, [0, 2], [1]), atol=1e-8)

    @pytest.mark.parametrize("edges, k_prop", [([], 3), ([(0, 1), (1, 2)], 0), ([], 0)])
    def test_no_edges_or_no_steps_give_positive_zeros(self, edges, k_prop):
        g = build_graph(3, np.array(edges, dtype=np.int64).reshape(-1, 2), np.zeros((3, 1)), np.array([1, -1, 1]))
        grad = gradient(g, init_mask(g), PropagationConfig(alpha=0.5, k_prop=k_prop), [0], [1])
        assert grad.shape == (g.m,) and not grad.any() and not np.signbit(grad).any()

    def test_unnormalised_beliefs_rejected(self):
        # the one-vector adjoint needs E[:, 1] = 1 - E[:, 0] at every state
        g = random_test_graph(np.random.default_rng(4), 6, 0.4)
        e0 = _anchor_beliefs(6, [0], [5])
        e0[[2, 4]] = (0.5, 0.6)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        with pytest.raises(PropagationError, match=r"belief row 2 sums to 1\.1"):
            gradient(g, init_mask(g), cfg, [0], [5], e0)

    def test_gradient_finite(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_test_graph(rng, 10, 0.3)
            mask = init_mask(g)
            mask.theta[:] = rng.normal(size=g.m)
            cfg = PropagationConfig(alpha=0.6, k_prop=4)
            grad = gradient(g, mask, cfg, [0], [9])
            assert np.isfinite(grad).all()


class TestStateReuse:
    """lpl_gradient reads the belief states propagate returns, and
    optimize_mask hands it those of the accepted point."""

    @staticmethod
    def problem(seed):
        g = generate_planted(PlantedConfig(n=150, h=0.6, avg_degree=5, seed=seed))
        split = make_pu_split(g, 0.5, seed=seed)
        neg = split.U[::3]
        return g, split.P, neg, _anchor_beliefs(g.n, split.P, neg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recorded_states_give_the_same_gradient(self, seed):
        g, pos, neg, e0 = self.problem(seed)
        cfg = PropagationConfig(alpha=0.4, k_prop=6)
        mask = init_mask(g)
        mask.theta[:] = np.random.default_rng(seed).normal(size=g.m)
        op = propagation_operator(g, mask)
        states = propagate(op, e0, cfg)
        assert len(states) == cfg.k_prop + 1
        assert states[0] is not e0
        np.testing.assert_array_equal(states[0], e0)
        for prev, cur in zip(states, states[1:]):
            np.testing.assert_array_equal(cur, cfg.alpha * prev + (1.0 - cfg.alpha) * (op @ prev))

    @pytest.mark.parametrize("seed, lr", [(0, 0.3), (1, 10.0), (2, 30.0)])
    def test_optimize_mask_matches_a_loop_without_states(self, seed, lr):
        # the larger rates force halvings, so rejected candidates occur too;
        # this loop records fresh states for every gradient
        g, pos, neg, e0 = self.problem(seed)
        cfg = PropagationConfig(alpha=0.5, k_prop=5)

        def loss(theta):
            return lpl_loss(propagate(propagation_operator(g, EdgeMask(theta)), e0, cfg)[-1], pos, neg)

        theta = init_mask(g).theta.copy()
        prev = loss(theta)
        for _ in range(12):
            grad = gradient(g, EdgeMask(theta), cfg, pos, neg)
            if not np.any(grad):
                break
            step_lr, cur = lr, prev
            for _ in range(40):
                cand = theta - step_lr * np.sign(grad)
                if loss(cand) <= prev:
                    theta, cur = cand, loss(cand)
                    break
                step_lr *= 0.5
            done = abs(cur - prev) < 1e-5 * max(1.0, abs(prev))
            prev = cur
            if done:
                break
        got = optimize_mask(g, init_mask(g), cfg, pos, neg, steps=12, lr=lr)
        np.testing.assert_array_equal(got.theta, theta)

    @pytest.mark.parametrize("seed, lr", [(0, 0.3), (1, 30.0)])
    def test_gradients_build_no_operator(self, monkeypatch, seed, lr):
        # every propagation build is a line-search evaluation: the gradient
        # reuses the operator the accepted mask holds
        g, pos, neg, _ = self.problem(seed)
        builds, evals = [], []
        matrix, lpl_at = _Layout.matrix, gpl.propagation._lpl_at

        def counted_matrix(lay, data):
            builds.append(lay is g._propagation_layout)
            return matrix(lay, data)

        def counted_lpl_at(*args):
            evals.append(1)
            return lpl_at(*args)

        monkeypatch.setattr(_Layout, "matrix", counted_matrix)
        monkeypatch.setattr(gpl.propagation, "_lpl_at", counted_lpl_at)
        optimize_mask(g, init_mask(g), PropagationConfig(alpha=0.5, k_prop=5), pos, neg, steps=8, lr=lr)
        assert len(evals) > 1  # so at least one gradient ran
        assert sum(builds) == len(evals)

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_wrong_number_of_states_rejected(self, count):
        g, pos, neg, e0 = self.problem(0)
        cfg = PropagationConfig(alpha=0.5, k_prop=3)
        with pytest.raises(PropagationError, match="expected 4 belief states, got"):
            lpl_gradient(g, init_mask(g), [e0] * count, cfg, pos, neg)


class TestOptimizeMask:
    def test_null_update(self, path3):
        mask = init_mask(path3)
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        out = optimize_mask(path3, mask, cfg, [0], [1], steps=1, lr=0.0)
        np.testing.assert_array_equal(out.theta, mask.theta)

    def test_separates_edge_classes(self):
        cfg = PlantedConfig(n=120, pi_p=0.5, h=0.4, avg_degree=8,
                            feature_dim=4, feature_separation=1.0, seed=3)
        g = generate_planted(cfg)
        split = make_pu_split(g, 1.0, seed=3)
        # full observation: U holds only negatives, so anchor them all
        pcfg = PropagationConfig(alpha=0.5, k_prop=10)
        mask = optimize_mask(g, init_mask(g), pcfg, split.P, split.U,
                             steps=200, lr=0.1)
        w = mask.weights()
        lab = g.labels
        het = lab[g.edges[:, 0]] != lab[g.edges[:, 1]]
        assert w[het].mean() < w[~het].mean()

    def test_loss_never_increases(self):
        pcfg = PropagationConfig(alpha=0.5, k_prop=3)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_test_graph(rng, 10, 0.3)
            e0 = _anchor_beliefs(10, [0, 1], [8, 9])
            m0 = init_mask(g)
            before = lpl_loss(
                propagate(propagation_operator(g, m0), e0, pcfg)[-1], [0, 1], [8, 9])
            m1 = optimize_mask(g, m0, pcfg, [0, 1], [8, 9], steps=15, lr=0.3)
            after = lpl_loss(
                propagate(propagation_operator(g, m1), e0, pcfg)[-1], [0, 1], [8, 9])
            assert after <= before + 1e-12

    def test_input_mask_not_mutated(self, path3):
        mask = init_mask(path3)
        theta0 = mask.theta.copy()
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        optimize_mask(path3, mask, cfg, [0], [1], steps=5, lr=0.5)
        np.testing.assert_array_equal(mask.theta, theta0)

    @pytest.mark.parametrize("pos, neg, msg", [([], [1], "empty"), ([0, 1], [1], "overlap"),
                                               ([3], [1], "anchor id 3 is out of range"),
                                               ([-1], [1], "anchor id -1 is out of range"),
                                               # the range check runs before the overlap check marks ids
                                               ([0, 1], [1, 3], "anchor id 3 is out of range"),
                                               # a boolean mask would be read as the ids 0 and 1
                                               (np.array([True, False, True]), [], "not boolean masks"),
                                               ([0], np.array([False, True, False]), "not boolean masks")])
    def test_bad_anchor_sets_rejected(self, path3, pos, neg, msg):
        # the anchor sets alone define E_0, so they are checked before it is built
        cfg = PropagationConfig(alpha=0.5, k_prop=2)
        with pytest.raises(PropagationError, match=msg):
            optimize_mask(path3, init_mask(path3), cfg, pos, neg, steps=1, lr=0.1)

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import gpl.gnn as gnn
from gpl.gnn import (
    ADAM_B1,
    ADAM_B2,
    ADAM_EPS,
    ClassifierError,
    Workspace,
    backward_and_step,
    forward,
    init_classifier,
    loss_gradients,
    predict_labels,
    pu_loss,
    save_checkpoint,
    scores,
    select_top,
)
from gpl.graph import GraphError, build_graph, gcn_operator, propagation_operator
from gpl.metrics import fd_classifier_gradients, random_mask, random_test_graph
from gpl.synth import PlantedConfig, generate_planted, make_pu_split


def zeroed(d_in, hidden):
    st_ = init_classifier(d_in, hidden, seed=0)
    for p in st_.params().values():
        p[:] = 0.0
    return st_


def named(vec, state):
    """vec, laid out like state.theta, cut into blocks named and shaped as
    state.params(): a reading of the layout independent of the views."""
    out, k = {}, 0
    for name, p in state.params().items():
        out[name] = vec[k:k + p.size].reshape(p.shape)
        k += p.size
    assert k == vec.size
    return out


class TestLayout:
    @pytest.mark.parametrize("d_in,hidden,seed", [(1, 1, 0), (3, 4, 7), (8, 16, 123)])
    def test_init_draws_the_four_blocks_in_order_into_theta(self, d_in, hidden, seed):
        rng = np.random.default_rng(seed)
        s1, s2 = 1.0 / np.sqrt(d_in), 1.0 / np.sqrt(hidden)
        want = {"W1": rng.uniform(-s1, s1, size=(d_in, hidden)), "b1": rng.uniform(-s1, s1, size=hidden),
                "W2": rng.uniform(-s2, s2, size=(hidden, 1)), "b2": rng.uniform(-s2, s2, size=1)}
        state = init_classifier(d_in, hidden, seed)
        assert list(state.params()) == list(want)
        for k, p in state.params().items():
            assert p.shape == want[k].shape, k
            np.testing.assert_array_equal(p, want[k], err_msg=k)
            assert np.shares_memory(p, state.theta), k
        assert np.shares_memory(state.W1b1, state.theta)
        np.testing.assert_array_equal(state.W1b1, np.vstack([want["W1"], want["b1"]]))
        np.testing.assert_array_equal(state.theta, np.concatenate([w.ravel() for w in want.values()]))
        for v in (state.theta, state.adam_m, state.adam_v):
            assert v.shape == ((d_in + 1) * hidden + hidden + 1,)
        assert not state.adam_m.any() and not state.adam_v.any() and state.t == 0


class TestInitChecks:
    @pytest.mark.parametrize("args, named", [
        ((3, 2.5, 0), "hidden must be an integer, got 2.5"),
        ((3, 4, -1), "seed must be >= 0"),
        ((0, 4, 0), "d_in must be >= 1"),
        ((3, 0, 0), "hidden must be >= 1"),
        ((3.0, 4, 0), "d_in must be an integer"),
        ((3, 4, True), "seed must be an integer"),
    ])
    def test_bad_sizes_and_seeds_rejected(self, args, named):
        with pytest.raises(ClassifierError, match=named):
            init_classifier(*args)


class TestForward:
    def test_zero_weights_give_half(self):
        rng = np.random.default_rng(0)
        g = random_test_graph(rng, 6, 0.3)
        z = forward(zeroed(3, 4), gcn_operator(g, None), g.features)
        np.testing.assert_allclose(z, 0.5)

    def test_scalar_chain(self):
        g = build_graph(1, [], np.array([[1.0]]), np.array([1]))
        state = zeroed(1, 1)
        state.W1[:] = 1.0
        state.W2[:] = 1.0
        z = forward(state, gcn_operator(g, None), g.features)
        assert z[0] == pytest.approx(expit(1.0))

    def test_output_bounds(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            g = random_test_graph(rng, 8, 0.3)
            state = init_classifier(3, 5, seed=seed)
            z = forward(state, gcn_operator(g, None), g.features)
            assert ((z > 0) & (z < 1)).all()


class TestSelectTop:
    def test_zero_fraction(self):
        sel = select_top(np.arange(8), np.linspace(0, 1, 8), 0.0)
        assert sel.s_set.size == 0
        assert sel.complement.size == 8

    def test_quarter(self):
        scores = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7, 0.4, 0.6])
        sel = select_top(np.arange(8), scores, 0.25)
        assert sel.s_set.tolist() == [1, 3]

    def test_full_fraction(self):
        sel = select_top(np.arange(5), np.zeros(5), 1.0)
        assert sel.s_set.tolist() == [0, 1, 2, 3, 4]

    def test_tie_breaks_to_lower_index(self):
        sel = select_top(np.array([9, 7, 4]), np.full(10, 0.5), 1 / 3)
        assert sel.s_set.tolist() == [4]

    def test_scores_are_read_by_node_id(self):
        # z holds one score per graph node; U's order does not matter
        sel = select_top(np.array([3, 1]), np.array([0.0, 0.2, 0.0, 0.9]), 0.5)
        assert sel.s_set.tolist() == [3] and sel.complement.tolist() == [1]

    def test_half_up_rounding(self):
        # 0.25 * 2 = 0.5 rounds up to 1
        sel = select_top(np.array([0, 1]), np.array([0.2, 0.9]), 0.25)
        assert sel.s_set.tolist() == [1]

    def test_partition(self):
        rng = np.random.default_rng(3)
        u = np.sort(rng.choice(100, size=20, replace=False))
        sel = select_top(u, rng.random(100), 0.4)
        merged = np.sort(np.concatenate([sel.s_set, sel.complement]))
        assert np.array_equal(merged, u)

    # a mask would be read as the ids 1, 0, 1 and a float id cut to an int
    @pytest.mark.parametrize("ids, dtype", [(np.array([True, False, True]), "bool"),
                                            ([0.0, 2.7, 1.0], "float64")])
    def test_mask_or_float_ids_rejected(self, ids, dtype):
        with pytest.raises(GraphError, match=f"got dtype {dtype}"):
            select_top(ids, np.array([0.9, 0.2, 0.8]), 0.5)

    def test_repeated_id_rejected(self):
        # 3 would land in both the selection and its complement
        with pytest.raises(ClassifierError, match="node id 3 appears more than once"):
            select_top([3, 3, 1], np.array([0.9, 0.2, 0.5, 0.1]), 1 / 3)
        with pytest.raises(ClassifierError, match="node id 5 appears"):
            select_top(np.array([5, 0, 7, 5]), np.zeros(8), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), pi=st.floats(0, 1), eps=st.floats(0, 1))
    def test_size_lipschitz_in_pi(self, seed, pi, eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        u = np.arange(n)
        s = rng.random(n)
        delta = eps / n  # strictly below 1/|U| after the strict-inequality shave
        pi2 = min(1.0, pi + 0.999 * delta)
        a = select_top(u, s, pi).s_set.size
        b = select_top(u, s, pi2).s_set.size
        assert abs(a - b) <= 1


class TestPuLoss:
    def test_uniform_scores(self):
        z = np.array([0.5, 0.5])
        assert pu_loss(z, [0], [1]) == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_perfect_limit(self):
        z = np.array([1.0 - 1e-12, 1e-12])
        assert pu_loss(z, [0], [1]) < 1e-9

    def test_hand_value(self):
        z = np.array([0.8, 0.4, 0.2])
        want = -np.log(0.8) + 0.5 * (-np.log(0.6) - np.log(0.8))
        got = pu_loss(z, [0], [1, 2])
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.59013, abs=1e-5)

    def test_empty_group_dropped(self):
        z = np.array([0.8, 0.4])
        assert pu_loss(z, [0], []) == pytest.approx(-np.log(0.8), abs=1e-9)

    def test_both_empty_errors(self):
        with pytest.raises(ClassifierError, match="empty"):
            pu_loss(np.array([0.5]), [], [])

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.random(10)
        pos, neg = [0, 3, 5], [1, 2, 8]
        a = pu_loss(z, pos, neg)
        b = pu_loss(z, pos[::-1], neg[::-1])
        assert a == pytest.approx(b, abs=1e-15)

    # a mask would be read as the ids 1, 0, 1 and a float id cut to an int
    @pytest.mark.parametrize("ids, dtype", [(np.array([True, False, True]), "bool"),
                                            ([0.0, 2.7], "float64")])
    def test_mask_or_float_ids_rejected(self, ids, dtype):
        z = np.array([0.9, 0.2, 0.9])
        with pytest.raises(GraphError, match=f"got dtype {dtype}"):
            pu_loss(z, ids, [])
        with pytest.raises(GraphError, match=f"got dtype {dtype}"):
            pu_loss(z, [0], ids)
        assert pu_loss(z, [0, 2], []) == pytest.approx(-np.log(0.9), abs=1e-9)


class TestBackward:
    def test_null_learning_rate_leaves_params(self):
        rng = np.random.default_rng(2)
        g = random_test_graph(rng, 6, 0.3)
        state = init_classifier(3, 3, seed=1)
        before = {k: v.copy() for k, v in state.params().items()}
        op = gcn_operator(g, None)
        state, loss = backward_and_step(state, Workspace(op, g.features, 3, [0, 1], [4, 5]), 0.0)
        for k, v in state.params().items():
            np.testing.assert_array_equal(v, before[k])
        assert np.isfinite(loss)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            g = random_test_graph(rng, 6, 0.3)
            state = init_classifier(3, 3, seed=trial)
            op = gcn_operator(g, None)
            pos, neg = [0, 1], [4, 5]
            grad, _ = loss_gradients(state, Workspace(op, g.features, 3, pos, neg))
            g_num = fd_classifier_gradients(state, op, g.features, pos, neg)
            big = np.abs(g_num) > 1e-8
            assert big.any()
            rel = np.abs(grad[big] - g_num[big]) / np.abs(g_num[big])
            assert rel.max() < 1e-4, np.flatnonzero(big)[np.argmax(rel)]

    @pytest.mark.parametrize("ids, dtype", [(np.array([True, False, True, False, False, False]), "bool"),
                                            (np.array([0.0, 4.5]), "float64")])
    def test_mask_or_float_ids_rejected(self, ids, dtype):
        g = random_test_graph(np.random.default_rng(2), 6, 0.3)
        with pytest.raises(GraphError, match=f"got dtype {dtype}"):
            loss_gradients(init_classifier(3, 3, seed=0), Workspace(gcn_operator(g, None), g.features, 3, ids, [4, 5]))

    def test_separable_graph_trains_to_low_loss(self):
        cfg = PlantedConfig(n=80, pi_p=0.5, h=0.1, avg_degree=6,
                            feature_dim=4, feature_separation=3.0, seed=0)
        g = generate_planted(cfg)
        pos = np.flatnonzero(g.labels == 1)
        neg = np.flatnonzero(g.labels == -1)
        state = init_classifier(4, 8, seed=0)
        work = Workspace(gcn_operator(g, None), g.features, 8, pos, neg)
        loss = None
        for _ in range(200):
            state, loss = backward_and_step(state, work, 0.01)
        assert loss < 0.1

    def test_adam_steps_advance_counter(self):
        rng = np.random.default_rng(4)
        g = random_test_graph(rng, 5, 0.3)
        state = init_classifier(3, 3, seed=0)
        work = Workspace(gcn_operator(g, None), g.features, 3, [0], [4])
        state, _ = backward_and_step(state, work, 0.01)
        state, _ = backward_and_step(state, work, 0.01)
        assert state.t == 2


class TestWorkspace:
    @staticmethod
    def problem(n, seed=0):
        g = generate_planted(PlantedConfig(n=n, h=0.6, avg_degree=6, seed=seed))
        split = make_pu_split(g, 0.5, seed=seed)
        return g, gcn_operator(g, None), split.P, split.U

    @pytest.mark.parametrize("hidden", [1, 7, 16])
    def test_shared_workspace_leaves_the_same_parameters(self, hidden):
        g, op, pos, neg = self.problem(300)
        fresh = init_classifier(g.features.shape[1], hidden, seed=2)
        shared = init_classifier(g.features.shape[1], hidden, seed=2)
        work = Workspace(op, g.features, hidden, pos, neg)
        for _ in range(25):
            fresh, loss_a = backward_and_step(fresh, Workspace(op, g.features, hidden, pos, neg), 0.05)
            shared, loss_b = backward_and_step(shared, work, 0.05)
            assert loss_a == loss_b
        for k, p in fresh.params().items():
            np.testing.assert_array_equal(shared.params()[k], p, err_msg=k)
            np.testing.assert_array_equal(named(shared.adam_m, shared)[k], named(fresh.adam_m, fresh)[k])
            np.testing.assert_array_equal(named(shared.adam_v, shared)[k], named(fresh.adam_v, fresh)[k])
        np.testing.assert_array_equal(scores(shared, work), forward(fresh, op, g.features))
        grads_a = named(loss_gradients(fresh, Workspace(op, g.features, hidden, pos, neg))[0], fresh)
        grads_b = named(loss_gradients(fresh, work)[0], fresh)
        for k in grads_a:
            np.testing.assert_array_equal(grads_b[k], grads_a[k], err_msg=k)

    def test_scores_after_a_step_match_a_fresh_workspace(self):
        # the step leaves M * dq written over h1; the next scores on that
        # workspace must not read it
        g, op, pos, neg = self.problem(300)
        state = init_classifier(g.features.shape[1], 16, seed=1)
        work = Workspace(op, g.features, 16, pos, neg)
        for _ in range(3):
            backward_and_step(state, work, 0.05)
            np.testing.assert_array_equal(scores(state, work), scores(state, Workspace(op, g.features, 16)))

    def test_repeated_gradients_on_one_workspace_are_identical(self):
        g, op, pos, neg = self.problem(300)
        state = init_classifier(g.features.shape[1], 16, seed=1)
        work = Workspace(op, g.features, 16, pos, neg)
        grad_a, loss_a = loss_gradients(state, work)
        grad_b, loss_b = loss_gradients(state, work)
        assert loss_a == loss_b
        np.testing.assert_array_equal(grad_b, grad_a)

    def test_workspace_for_another_fit_rejected(self):
        g, op, pos, neg = self.problem(60)
        state = init_classifier(g.features.shape[1], 4, seed=0)
        work = Workspace(op, g.features, 5, pos, neg)
        with pytest.raises(ClassifierError, match="4 columns but the workspace holds 5 hidden units"):
            backward_and_step(state, work, 0.01)
        with pytest.raises(ClassifierError, match="workspace"):
            scores(state, work)

    @pytest.mark.parametrize("shape", [(5, 5), (4, 5), (5, 4)])
    def test_operator_must_be_n_by_n(self, shape):
        op = sp.csr_matrix(shape)
        with pytest.raises(ClassifierError, match=f"operator is {shape[0]} x {shape[1]} but X has 4 rows"):
            Workspace(op, np.zeros((4, 2)), 3)

    def test_operator_must_be_symmetric(self):
        g, op, pos, neg = self.problem(60)
        Workspace(op, g.features, 3, pos, neg)
        with pytest.raises(ClassifierError, match="operator must be symmetric"):
            Workspace(propagation_operator(g, None), g.features, 3, pos, neg)

    def test_features_must_be_a_matrix(self):
        with pytest.raises(ClassifierError, match=r"feature matrix X must be n x D, got shape \(4,\)"):
            Workspace(sp.identity(4, format="csr"), np.zeros(4), 3)

    @pytest.mark.parametrize("hidden, named", [(0, "hidden must be >= 1"), (-2, "hidden must be >= 1"),
                                               (2.0, "hidden must be an integer")])
    def test_hidden_must_be_a_positive_integer(self, hidden, named):
        with pytest.raises(ClassifierError, match=named):
            Workspace(sp.identity(4, format="csr"), np.zeros((4, 2)), hidden)

    def test_ids_are_read_once_into_the_workspace(self):
        g, op, pos, neg = self.problem(60)
        work = Workspace(op, g.features, 4, list(pos), neg)
        assert work.pos.dtype == work.neg.dtype == np.int64
        np.testing.assert_array_equal(work.pos, pos)
        assert work.neg is neg  # int64 ids pass through uncopied
        empty = Workspace(op, g.features, 4)
        assert empty.pos.size == empty.neg.size == 0
        with pytest.raises(ClassifierError, match="both groups empty"):
            loss_gradients(init_classifier(g.features.shape[1], 4, seed=0), empty)

    def test_feature_width_mismatch_names_both_widths(self):
        rng = np.random.default_rng(0)
        g = random_test_graph(rng, 6, 0.4)  # 3 feature columns
        op = gcn_operator(g, None)
        state = init_classifier(5, 4, seed=0)
        with pytest.raises(ClassifierError, match="W1 has 5 rows but X has 3 feature columns"):
            forward(state, op, g.features)
        with pytest.raises(ClassifierError, match="5 rows.*3 feature columns"):
            loss_gradients(state, Workspace(op, g.features, 4, [0], [1]))
        with pytest.raises(ClassifierError, match="5 rows.*3 feature columns"):
            backward_and_step(state, Workspace(op, g.features, 4, [0], [1]), 0.01)

    def test_step_on_a_shared_workspace_allocates_less_than_one_hidden_layer(self):
        n, hidden = 4000, 16
        g, op, pos, neg = self.problem(n)
        state = init_classifier(g.features.shape[1], hidden, seed=0)
        work = Workspace(op, g.features, hidden, pos, neg)
        backward_and_step(state, work, 0.01)
        tracemalloc.start()
        try:
            backward_and_step(state, work, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * hidden * 8


def textbook_step(state, op, X, pos, neg):
    """(grads, loss, z) of pu_loss written out plainly: the bias added after
    the first product, a matmul outer product, a CSR transpose and a column
    sum for the b1 gradient."""
    xs = op @ X
    pre1 = xs @ state.W1 + state.b1
    h1 = np.maximum(pre1, 0.0)
    z = expit((op @ (h1 @ state.W2)).ravel() + state.b2[0])
    loss = -float(np.mean(np.log(z[pos] + 1e-12))) - float(np.mean(np.log(1.0 - z[neg] + 1e-12)))
    dz = np.zeros_like(z)
    dz[pos] -= 1.0 / (pos.size * (z[pos] + 1e-12))
    dz[neg] += 1.0 / (neg.size * (1.0 - z[neg] + 1e-12))
    dpre2 = dz * z * (1.0 - z)
    dq = (op.T.tocsr() @ dpre2)[:, None]
    dpre1 = np.matmul(dq, state.W2.T) * (pre1 > 0.0)
    grads = {"W1": xs.T @ dpre1, "b1": dpre1.sum(axis=0), "W2": h1.T @ dq,
             "b2": np.array([dpre2.sum()])}
    return grads, loss, z


def blocked_step(state, work):
    """(grad, loss) as loss_gradients took them before the gradient was
    written into one vector: the loss on z[pos] and z[neg], dz by
    subtraction and addition, separate W2 and [W1; b1] arrays joined by
    np.concatenate."""
    pos, neg = work.pos, work.neg
    z = scores(state, work)
    loss = -float(np.log(z[pos] + 1e-12).sum() / pos.size) - float(np.log(1.0 - z[neg] + 1e-12).sum() / neg.size)
    dz = np.zeros_like(z)
    dz[pos] -= 1.0 / (pos.size * (z[pos] + 1e-12))
    dz[neg] += 1.0 / (neg.size * (1.0 - z[neg] + 1e-12))
    dpre2 = dz * z * (1.0 - z)
    dq = work.op @ dpre2
    g2 = work.h1.T @ dq[:, None]
    g1 = np.zeros_like(state.W1b1)
    for b in work.blocks:
        m = (work.h1[b] > 0.0) * dq[b, None]
        g1 += work.xs1T[:, b] @ m
    g1 *= state.W2.T
    return np.concatenate([g1.ravel(), g2.ravel(), [dpre2.sum()]]), loss


class TestAgainstTextbookStep:
    @pytest.mark.parametrize("n", [300, 4000, 16000])
    def test_loss_scores_and_gradients(self, n):
        g = generate_planted(PlantedConfig(n=n, h=0.7, avg_degree=10, seed=1))
        split = make_pu_split(g, 0.5, seed=1)
        op = gcn_operator(g, random_mask(np.random.default_rng(n), g))
        state = init_classifier(g.features.shape[1], 16, seed=3)
        rng = np.random.default_rng(n + 1)
        for p in state.params().values():  # move off the init so both relu sides occur
            p += 0.3 * rng.normal(size=p.shape)
        ref, ref_loss, ref_z = textbook_step(state, op, g.features, split.P, split.U)
        grad, loss = loss_gradients(state, Workspace(op, g.features, 16, split.P, split.U))
        grads = named(grad, state)
        assert loss == ref_loss
        np.testing.assert_array_equal(forward(state, op, g.features), ref_z)
        for k in ("W2", "b2"):
            np.testing.assert_array_equal(grads[k], ref[k], err_msg=k)
        # W1 and b1 come from [xs | 1].T @ (relu * dq), scaled by W2 after
        # the n-long sums and not inside them, so only a bound holds
        for k in ("W1", "b1"):
            assert np.abs(grads[k] - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max(), k

    @pytest.mark.parametrize("n, block_bytes", [(300, 1), (301, 128 * 128), (4000, gnn.BLOCK_BYTES),
                                                (16000, gnn.BLOCK_BYTES)])
    def test_gradient_matches_the_blocked_form_bit_for_bit(self, n, block_bytes, monkeypatch):
        # the gradient written in place into one vector, every part of it
        # [W1; b1] included, against the separate arrays it replaced
        g = generate_planted(PlantedConfig(n=n, h=0.7, avg_degree=10, seed=2))
        split = make_pu_split(g, 0.5, seed=2)
        monkeypatch.setattr(gnn, "BLOCK_BYTES", block_bytes)
        work = Workspace(gcn_operator(g, random_mask(np.random.default_rng(n), g)), g.features, 16,
                         split.P, split.U)
        state = init_classifier(g.features.shape[1], 16, seed=5)
        rng = np.random.default_rng(n + 2)
        for p in state.params().values():  # move off the init so both relu sides occur
            p += 0.3 * rng.normal(size=p.shape)
        want, want_loss = blocked_step(state, work)
        grad, loss = loss_gradients(state, work)
        assert loss == want_loss
        np.testing.assert_array_equal(grad, want)

    @pytest.mark.parametrize("lr", [0.01, 0.05])
    def test_adam_matches_the_per_block_update(self, lr):
        # the per-block Adam loop over four named blocks and dict moments,
        # fed the same gradients; Adam is elementwise, so one update on the
        # whole vector must give the same bits
        g = generate_planted(PlantedConfig(n=300, h=0.7, avg_degree=10, seed=1))
        split = make_pu_split(g, 0.5, seed=1)
        work = Workspace(gcn_operator(g, None), g.features, 16, split.P, split.U)
        d_in = g.features.shape[1]
        state = init_classifier(d_in, 16, seed=3)
        probe = init_classifier(d_in, 16, seed=3)  # gradients at the reference parameters
        params = {k: p.copy() for k, p in state.params().items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 26):
            probe.theta[:] = np.concatenate([p.ravel() for p in params.values()])
            grads = named(loss_gradients(probe, work)[0], probe)
            for k, p in params.items():
                gk = grads[k]
                m[k] = ADAM_B1 * m[k] + (1 - ADAM_B1) * gk
                v[k] = ADAM_B2 * v[k] + (1 - ADAM_B2) * gk * gk
                mhat = m[k] / (1 - ADAM_B1**t)
                vhat = v[k] / (1 - ADAM_B2**t)
                p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            state, _ = backward_and_step(state, work, lr)
        assert state.t == 25
        assert not np.array_equal(state.theta, init_classifier(d_in, 16, seed=3).theta)
        for vec, blocks in ((state.theta, params), (state.adam_m, m), (state.adam_v, v)):
            np.testing.assert_array_equal(vec, np.concatenate([b.ravel() for b in blocks.values()]))


    def test_in_place_adam_matches_the_textbook_update_for_200_steps(self):
        # the textbook update on whole vectors, fed the same gradients; the
        # step writes the moments and theta in place, in the same operand order
        g = generate_planted(PlantedConfig(n=300, h=0.7, avg_degree=10, seed=2))
        split = make_pu_split(g, 0.5, seed=2)
        work = Workspace(gcn_operator(g, None), g.features, 16, split.P, split.U)
        d_in, lr = g.features.shape[1], 0.02
        state = init_classifier(d_in, 16, seed=4)
        probe = init_classifier(d_in, 16, seed=4)
        theta, m, v = state.theta.copy(), np.zeros_like(state.theta), np.zeros_like(state.theta)
        arrays = (state.theta, state.adam_m, state.adam_v)
        for t in range(1, 201):
            probe.theta[:] = theta
            grad = loss_gradients(probe, work)[0]
            m = ADAM_B1 * m + (1 - ADAM_B1) * grad
            v = ADAM_B2 * v + (1 - ADAM_B2) * grad * grad
            mhat = m / (1 - ADAM_B1**t)
            vhat = v / (1 - ADAM_B2**t)
            theta = theta - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            state, _ = backward_and_step(state, work, lr)
        assert state.t == 200
        assert all(a is b for a, b in zip((state.theta, state.adam_m, state.adam_v), arrays))
        for got, want in ((state.theta, theta), (state.adam_m, m), (state.adam_v, v)):
            np.testing.assert_array_equal(got, want)


class TestRowBlocks:
    """The hidden layer walked in row blocks of gnn.BLOCK_BYTES, forced down
    to the smallest block (BLOCK_ALIGN rows) at n near 300, against one."""

    @staticmethod
    def problem(n):
        g = generate_planted(PlantedConfig(n=n, h=0.7, avg_degree=10, seed=1))
        split = make_pu_split(g, 0.5, seed=1)
        op = gcn_operator(g, random_mask(np.random.default_rng(5), g))
        state = init_classifier(g.features.shape[1], 16, seed=3)
        rng = np.random.default_rng(6)
        for p in state.params().values():  # move off the init so both relu sides occur
            p += 0.3 * rng.normal(size=p.shape)
        return g, split, op, state

    @pytest.mark.parametrize("hidden, block_bytes, rows", [
        (1, 1, 64), (16, 1, 64), (16, 64 * 128, 64), (16, 64 * 128 + 127, 64),  # the smallest block
        (16, 127 * 128, 64), (16, 128 * 128, 128), (16, 256 * 1024, 2048), (7, 256 * 1024, 4672),
        (3000, 256 * 1024, 64)])
    def test_blocks_are_whole_groups_covering_every_row_once(self, hidden, block_bytes, rows, monkeypatch):
        monkeypatch.setattr(gnn, "BLOCK_BYTES", block_bytes)
        n = 5000
        work = Workspace(sp.identity(n, format="csr"), np.zeros((n, 1)), hidden)
        spans = [b.indices(n) for b in work.blocks]
        assert spans[0] == (0, min(rows, n), 1)
        assert all(stop - start == rows for start, stop, _ in spans[:-1])
        assert np.array_equal(np.concatenate([np.arange(*s) for s in spans]), np.arange(n))

    @pytest.mark.parametrize("n", [300, 301])
    @pytest.mark.parametrize("block_bytes", [
        1,             # smallest blocks, 64 rows: a ragged last one of 44 or 45
        128 * 128,     # 128 rows
        1024 * 128])   # n below one block
    def test_blocks_match_one_block(self, n, block_bytes, monkeypatch):
        g, split, op, state = self.problem(n)
        one = Workspace(op, g.features, 16, split.P, split.U)
        assert len(one.blocks) == 1
        monkeypatch.setattr(gnn, "BLOCK_BYTES", block_bytes)
        work = Workspace(op, g.features, 16, split.P, split.U)
        np.testing.assert_array_equal(scores(state, work), scores(state, one))
        grad, loss = loss_gradients(state, work)
        grad_one, loss_one = loss_gradients(state, one)
        assert loss == loss_one
        got, want = named(grad, state), named(grad_one, state)
        ref = textbook_step(state, op, g.features, split.P, split.U)[0]
        for k in ("W2", "b2"):
            np.testing.assert_array_equal(got[k], want[k], err_msg=k)
            np.testing.assert_array_equal(got[k], ref[k], err_msg=k)
        for k in ("W1", "b1"):  # the bound of TestAgainstTextbookStep
            assert np.abs(got[k] - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max(), k
        # a step overwrites every block; the next scores must rebuild them all
        backward_and_step(state, work, 0.05)
        np.testing.assert_array_equal(scores(state, work), scores(state, Workspace(op, g.features, 16)))

    @pytest.mark.parametrize("block_bytes", [1, 128 * 128, 256 * 1024])
    def test_workspace_holds_one_hidden_layer(self, block_bytes, monkeypatch):
        # xs1T and one n x hidden buffer; a second n x hidden array would
        # add 128 bytes a node at hidden 16
        n, hidden = 4000, 16
        g = generate_planted(PlantedConfig(n=n, h=0.7, seed=0))
        monkeypatch.setattr(gnn, "BLOCK_BYTES", block_bytes)
        work = Workspace(gcn_operator(g, None), g.features, hidden)
        own = [v for v in vars(work).values() if isinstance(v, np.ndarray) and v is not g.features]
        d_in = g.features.shape[1]
        assert sum(v.nbytes for v in own) <= (d_in + 1 + hidden) * n * 8 + 8 * n


class TestPredictLabels:
    def test_basic(self):
        np.testing.assert_array_equal(predict_labels(np.array([0.9, 0.1])), [1, -1])

    def test_boundary_is_positive(self):
        assert predict_labels(np.array([0.5]))[0] == 1

    def test_just_below_is_negative(self):
        assert predict_labels(np.array([0.5 - 1e-9]))[0] == -1


def read_checkpoint(path):
    """Parameter blocks of a save_checkpoint file, keyed by name."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gpl-checkpoint v2"
    blocks, k = {}, 1
    while k < len(lines):
        name, r, c = lines[k].split()
        rows = [[float(v) for v in ln.split()] for ln in lines[k + 1:k + 1 + int(r)]]
        blocks[name] = np.array(rows).reshape(int(r), int(c))
        k += 1 + int(r)
    return blocks


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_test_graph(rng, 6, 0.3)
        state = init_classifier(3, 4, seed=3)
        work = Workspace(gcn_operator(g, None), g.features, 4, [0, 1], [4, 5])
        for _ in range(3):
            state, _ = backward_and_step(state, work, 0.01)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blocks = read_checkpoint(path)
        assert list(blocks) == ["W1", "b1", "W2", "b2"]
        for k, v in state.params().items():
            np.testing.assert_array_equal(blocks[k].reshape(v.shape), v)

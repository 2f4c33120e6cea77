import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpl.graph import (
    GraphError,
    _pair_from_index,
    build_graph,
    gcn_operator,
    heterophily_ratio,
    init_mask,
    propagation_operator,
    rewire_to_heterophily,
)
from gpl.synth import PlantedConfig, generate_planted

from conftest import random_graph


def _graph(n, edges, labels=None):
    X = np.zeros((n, 2))
    if labels is None:
        labels = np.ones(n, dtype=int)
    return build_graph(n, edges, X, np.asarray(labels))


class TestBuildGraph:
    def test_dedup_symmetric(self):
        g = _graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            _graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="edge"):
            _graph(2, [(0, 5)])

    def test_feature_row_mismatch(self):
        with pytest.raises(GraphError, match="feature"):
            build_graph(3, [(0, 1)], np.zeros((2, 2)), np.ones(3, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        X = np.zeros((4, 2))
        X[2, 1] = bad
        X[3, 0] = bad
        with pytest.raises(GraphError, match="feature row 2"):
            build_graph(4, [(0, 1)], X, np.ones(4, dtype=int))

    def test_degree_vector(self):
        g = _graph(4, [(0, 1), (2, 3)])
        assert g.degrees().tolist() == [1, 1, 1, 1]

    def test_canonical_order(self):
        g = _graph(4, [(3, 2), (1, 0)])
        assert (g.edges[:, 0] < g.edges[:, 1]).all()


class TestHeterophilyRatio:
    def test_all_within(self):
        g = _graph(4, [(0, 1), (2, 3)], [1, 1, -1, -1])
        assert heterophily_ratio(g) == 0.0

    def test_single_cross(self):
        g = _graph(2, [(0, 1)], [1, -1])
        assert heterophily_ratio(g) == 1.0

    def test_one_third(self):
        g = _graph(4, [(0, 1), (2, 3), (0, 2)], [1, 1, -1, -1])
        assert heterophily_ratio(g) == pytest.approx(1 / 3)

    def test_no_edges_errors(self):
        with pytest.raises(GraphError, match="no edges"):
            heterophily_ratio(_graph(2, []))

    def test_label_flip_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, 12)
            flipped = build_graph(g.n, g.edges, g.features, -g.labels)
            assert heterophily_ratio(g) == heterophily_ratio(flipped)


class TestRewire:
    def test_fixed_point(self):
        g = _graph(4, [(0, 1), (2, 3), (0, 2)], [1, 1, -1, -1])
        h = heterophily_ratio(g)
        g2 = rewire_to_heterophily(g, h, seed=0)
        assert np.array_equal(g2.edges, g.edges)

    def test_full_heterophily(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20)
        labels = np.array([1] * 10 + [-1] * 10)
        g = build_graph(g.n, g.edges, g.features, labels)
        g2 = rewire_to_heterophily(g, 1.0, seed=1)
        assert heterophily_ratio(g2) == 1.0
        assert abs(g2.m - g.m) <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 16)
        a = rewire_to_heterophily(g, 0.8, seed=42)
        b = rewire_to_heterophily(g, 0.8, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_preserves_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_graph(rng, 14)
            g2 = rewire_to_heterophily(g, 0.5, seed=2)
            assert g2.n == g.n
            assert abs(g2.m - g.m) <= 1
            assert abs(heterophily_ratio(g2) - 0.5) <= 0.02

    @pytest.mark.parametrize("h0, target", [(0.2, 0.7), (0.7, 0.2), (0.3, 1.0), (0.6, 0.0)])
    def test_moves_only_the_right_edges(self, h0, target):
        g = generate_planted(PlantedConfig(n=200, h=h0, avg_degree=6, seed=4))
        r = rewire_to_heterophily(g, target, seed=1)
        assert (r.n, r.m) == (g.n, g.m)
        assert r.edges.dtype == np.int64
        assert (r.edges[:, 0] < r.edges[:, 1]).all()
        keys = r.edges[:, 0] * r.n + r.edges[:, 1]
        assert (np.diff(keys) > 0).all()  # sorted, no repeats
        cross = lambda e: g.labels[e // g.n] != g.labels[e % g.n]
        old = g.edges[:, 0] * g.n + g.edges[:, 1]
        removed, added = np.setdiff1d(old, keys), np.setdiff1d(keys, old)
        target_cross = round(target * g.m)
        assert cross(keys).sum() == target_cross
        assert removed.size == added.size == abs(target_cross - cross(old).sum())
        up = target > h0
        assert (cross(removed) != up).all()  # only the over-represented type goes
        assert (cross(added) == up).all()    # only absent pairs of the other type come

    def test_unreachable_target_errors(self):
        # 3 positives, 1 negative: at most 3 cross pairs exist, 5 edges wanted
        g = _graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], [1, 1, 1, -1])
        with pytest.raises(GraphError, match="achievable"):
            rewire_to_heterophily(g, 1.0, seed=0)

    @pytest.mark.parametrize("k", [2, 3, 7, 40])
    def test_pair_decoder_enumerates_upper_triangle(self, k):
        ids = np.sort(np.random.default_rng(k).choice(10 * k, k, replace=False))
        want = [(ids[i], ids[j]) for i in range(k) for j in range(i + 1, k)]
        a, b = _pair_from_index(np.arange(len(want)), ids)
        assert list(zip(a, b)) == want
        assert [_pair_from_index(idx, ids) for idx in range(len(want))] == want


class TestOperators:
    def test_path2_rows(self, path2):
        mask = init_mask(path2, w0=0.5)
        op = propagation_operator(path2, mask).toarray()
        np.testing.assert_allclose(op, [[0, 1], [1, 0]])

    def test_uniform_mask_equals_unmasked(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 10)
        w = propagation_operator(g, init_mask(g, w0=0.3)).toarray()
        u = propagation_operator(g, None).toarray()
        np.testing.assert_allclose(w, u, atol=1e-12)

    def test_isolated_identity_row(self):
        g = _graph(3, [(0, 1)])
        op = propagation_operator(g, init_mask(g)).toarray()
        np.testing.assert_allclose(op[2], [0, 0, 1])
        s = gcn_operator(g, init_mask(g)).toarray()
        np.testing.assert_allclose(s[2], [0, 0, 1])

    def test_gcn_single_node(self):
        g = _graph(1, [])
        np.testing.assert_allclose(gcn_operator(g, None).toarray(), [[1.0]])

    def test_gcn_weight_one_limit(self, path2):
        s = gcn_operator(path2, None).toarray()
        np.testing.assert_allclose(s, [[0.5, 0.5], [0.5, 0.5]])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_row_sums_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 15)))
        mask = init_mask(g)
        mask.theta[:] = rng.normal(size=g.m)
        p = propagation_operator(g, mask).toarray()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
        assert (p >= 0).all()
        s = gcn_operator(g, mask).toarray()
        np.testing.assert_allclose(s, s.T, atol=1e-12)


class TestMask:
    def test_weights_in_open_interval(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8)
        mask = init_mask(g)
        mask.theta[:] = rng.normal(scale=10, size=g.m)
        w = mask.weights()
        assert ((w > 0) & (w < 1)).all()

    def test_init_near_default(self):
        g = _graph(2, [(0, 1)])
        np.testing.assert_allclose(init_mask(g).weights(), 0.95, atol=1e-12)

    def test_copy_independent(self):
        g = _graph(2, [(0, 1)])
        m1 = init_mask(g)
        m2 = m1.copy()
        m2.theta[0] = -3.0
        assert m1.theta[0] != m2.theta[0]

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logit
from scipy.stats import chi2

import gpl.graph as graph_mod
from gpl.graph import (
    EdgeMask,
    GraphError,
    _in_sorted,
    _typed_pairs,
    build_graph,
    gcn_operator,
    heterophily_ratio,
    init_mask,
    propagation_operator,
    rewire_to_heterophily,
)
from gpl.metrics import random_test_graph
from gpl.propagation import PropagationConfig, optimize_mask
from gpl.synth import PlantedConfig, generate_planted, make_pu_split


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

    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_edges_match_set_canonicalisation(self, case):
        n, pairs = case
        want = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        as_list = _graph(n, pairs)
        assert as_list.edges.dtype == np.int64 and as_list.edges.shape == (len(want), 2)
        assert as_list.edges.tolist() == [list(e) for e in want]
        as_array = _graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        from_generator = _graph(n, (p for p in pairs))
        for other in (as_array, from_generator):
            np.testing.assert_array_equal(other.edges, as_list.edges)

    @given(st.lists(st.sampled_from([(0, 1), (2, 2), (1, 7), (-1, 3), (3, 1), (9, 9)]),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_error_names_first_bad_pair(self, pairs):
        n = 4
        bad = [(i, j) for i, j in pairs if i == j or not (0 <= i < n and 0 <= j < n)]
        if not bad:
            assert _graph(n, pairs).m == len({tuple(sorted(p)) for p in pairs})
            return
        i, j = bad[0]
        # (9, 9) is both a self-loop and out of range; the self-loop is named
        what = "self-loop" if i == j else f"index out of range for n={n}"
        with pytest.raises(GraphError, match=rf"^edge \({i}, {j}\): {what}$"):
            _graph(n, pairs)

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1), (2,)], [(0, None)]])
    def test_malformed_pairs_rejected(self, edges):
        with pytest.raises(GraphError, match="pairs"):
            _graph(4, edges)

    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=12))))
    @settings(max_examples=200, deadline=None)
    def test_array_edges_match_a_set_reference(self, case):
        # the same pairs as an int64 array: repeats, both directions and bad pairs
        n, pairs = case
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        bad = [(i, j) for i, j in pairs if i == j or not (0 <= i < n and 0 <= j < n)]
        if bad:
            i, j = bad[0]
            what = "self-loop" if i == j else f"index out of range for n={n}"
            with pytest.raises(GraphError, match=rf"^edge \({i}, {j}\): {what}$"):
                _graph(n, arr)
            return
        want = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        g = _graph(n, arr)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(want), 2)
        assert g.edges.tolist() == [list(e) for e in want]

    @pytest.mark.parametrize("edges", [
        [], (), np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=bool),
        np.array([]), np.zeros((0, 2), dtype=object),
    ])
    def test_empty_edges_of_any_dtype_mean_no_edges(self, edges):
        g = _graph(3, edges)
        assert g.edges.dtype == np.int64 and g.edges.shape == (0, 2)

    @pytest.mark.parametrize("edges, dtype", [
        ([[0, 2.7]], "float64"),
        ([[True, False]], "bool"),
        ([(0, "1")], "<U21"),
        ([(0, None)], "object"),
        ([(0, 2**63)], "float64"),  # numpy reads a Python int past int64 as a float
        ([(0, 2**64)], "object"),
        (np.array([[0, 1]], dtype=np.float32), "float32"),
    ])
    def test_non_integer_ids_rejected_not_cast(self, edges, dtype):
        with pytest.raises(GraphError, match=rf"^edges must be \(i, j\) integer pairs, got dtype {re.escape(dtype)}$"):
            _graph(4, edges)

    def test_unsigned_ids_past_int64_named_as_given(self):
        edges = np.array([[0, 1], [1, 2**64 - 1]], dtype=np.uint64)
        with pytest.raises(GraphError, match=rf"^edge \(1, {2**64 - 1}\): index out of range for n=4$"):
            _graph(4, edges)
        narrow = _graph(4, np.array([[3, 1], [0, 1]], dtype=np.uint8))
        assert narrow.edges.dtype == np.int64 and narrow.edges.tolist() == [[0, 1], [1, 3]]

    @pytest.mark.parametrize("labels, dtype", [
        ([1.5, -1, -1.9], "float64"),  # a cast would read 1, -1, -1
        ([True, False, True], "bool"),  # a cast would read 1, 0, 1
        (["1", "-1", "1"], "<U2"),
        ([1, None, -1], "object"),
    ])
    def test_non_integer_labels_rejected_not_cast(self, labels, dtype):
        with pytest.raises(GraphError, match=rf"^labels must be the integers \+1/-1, got dtype {re.escape(dtype)}$"):
            build_graph(3, [(0, 1)], np.zeros((3, 1)), labels)
        g = build_graph(3, [(0, 1)], np.zeros((3, 1)), np.array([1, -1, 1], dtype=np.int8))
        assert g.labels.dtype == np.int64 and g.labels.tolist() == [1, -1, 1]

    @pytest.mark.parametrize("features", [[["a"], ["b"]], [[1.0], [1.0, 2.0]]])
    def test_unreadable_features_rejected(self, features):
        with pytest.raises(GraphError, match="^features must be 2 x D, got a ragged or non-numeric input$"):
            build_graph(2, [(0, 1)], features, [1, -1])

    def test_ragged_labels_rejected(self):
        with pytest.raises(GraphError, match="^labels must be a vector of \\+1/-1: "):
            build_graph(2, [(0, 1)], np.zeros((2, 1)), [[1], [1, -1]])

    @pytest.mark.parametrize("n", [4.0, True, "4", None])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(GraphError, match=rf"^node count must be an integer, got {re.escape(repr(n))}$"):
            build_graph(n, [(0, 1)], np.zeros((4, 2)), np.ones(4, dtype=int))
        for count in (np.int64(4), np.uint64(4), np.int8(4)):
            g = build_graph(count, [(0, 1), (3, 2)], np.zeros((4, 2)), np.ones(4, dtype=int))
            assert type(g.n) is int and g.n == 4
            assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 1], [2, 3]]


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
            g = random_test_graph(rng, 12, 0.3)
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
        g = random_test_graph(rng, 20, 0.3)
        labels = np.array([1] * 10 + [-1] * 10)
        g = build_graph(g.n, g.edges, g.features, labels)
        g2 = rewire_to_heterophily(g, 1.0, seed=1)
        assert heterophily_ratio(g2) == 1.0
        assert abs(g2.m - g.m) <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        g = random_test_graph(rng, 16, 0.3)
        a = rewire_to_heterophily(g, 0.8, seed=42)
        b = rewire_to_heterophily(g, 0.8, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_preserves_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_test_graph(rng, 20, 0.3)
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

    @pytest.mark.parametrize("target, cross", [(0.5, True), (0.0, False)])
    def test_added_pairs_are_uniform(self, target, cross):
        # 5 positives, 5 negatives, 8 within edges and 2 cross: h=0.5 adds 3
        # of the 23 absent cross pairs, h=0 adds 2 of the 12 absent within ones
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9), (0, 5), (1, 6)]
        g = _graph(10, edges, [1] * 5 + [-1] * 5)
        old = g.edges[:, 0] * 10 + g.edges[:, 1]
        i, j = np.triu_indices(10, 1)
        typed = ((i < 5) != (j < 5)) == cross
        absent = np.setdiff1d(i[typed] * 10 + j[typed], old)
        counts = np.zeros(absent.size)
        for seed in range(4000):
            r = rewire_to_heterophily(g, target, seed)
            added = np.setdiff1d(r.edges[:, 0] * 10 + r.edges[:, 1], old)
            assert added.size == abs(round(10 * target) - 2) and np.isin(added, absent).all()
            counts[np.searchsorted(absent, added)] += 1
        expected = counts.sum() / absent.size
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.999, absent.size - 1), stat  # 48.3 at 22 dof, 31.3 at 11

    @pytest.mark.parametrize("seed", range(5))
    def test_membership_by_binary_search_matches_isin(self, seed):
        rng = np.random.default_rng(seed)
        g = generate_planted(PlantedConfig(n=300, h=0.3, avg_degree=6, seed=seed))
        keys = g.edges[:, 0] * g.n + g.edges[:, 1]
        # present keys, absent pairs, and values below the first and past the last key
        x = np.concatenate([rng.choice(keys, 50), rng.integers(-5, g.n * g.n + 5, 200),
                            keys[[0, -1]], [keys[0] - 1, keys[-1] + 1]])
        np.testing.assert_array_equal(_in_sorted(keys, x), np.isin(x, keys))
        one = keys[:1]
        np.testing.assert_array_equal(_in_sorted(one, x), np.isin(x, one))

    @pytest.mark.parametrize("seed", range(4))
    def test_rewired_graph_matches_one_rewired_with_isin(self, seed, monkeypatch):
        # membership of the drawn pairs by np.isin in draw order must give
        # the same bytes as the sorted binary search
        g = generate_planted(PlantedConfig(n=400, h=0.6, avg_degree=8, seed=seed))
        got = [rewire_to_heterophily(g, t, seed) for t in (0.1, 0.4, 0.9)]
        monkeypatch.setattr(graph_mod, "_in_sorted", lambda keys, x: np.isin(x, keys))
        for t, r in zip((0.1, 0.4, 0.9), got):
            want = rewire_to_heterophily(g, t, seed)
            assert r.edges.dtype == want.edges.dtype
            assert r.edges.tobytes() == want.edges.tobytes(), t

    @pytest.mark.parametrize("seed, why", [(-1, "seed must be >= 0"), (2.5, "seed must be an integer, got 2.5")])
    def test_seed_is_a_checked_integer(self, seed, why):
        g = _graph(4, [(0, 1), (2, 3)], [1, 1, -1, -1])
        with pytest.raises(GraphError, match=f"^{re.escape(why)}$"):
            rewire_to_heterophily(g, 1.0, seed=seed)

    def test_unreachable_target_errors(self):
        # 3 positives, 1 negative: at most 3 cross pairs exist, 5 edges wanted
        g = _graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], [1, 1, 1, -1])
        with pytest.raises(GraphError, match="achievable"):
            rewire_to_heterophily(g, 1.0, seed=0)

    @pytest.mark.parametrize("k", [2, 3, 7, 40])
    def test_pair_decoder_enumerates_upper_triangle(self, k):
        ids = np.sort(np.random.default_rng(k).choice(10 * k, k, replace=False))
        want = [(ids[i], ids[j]) for i in range(k) for j in range(i + 1, k)]
        a, b = _typed_pairs(np.arange(len(want)), ids, np.empty(0, np.int64), False)
        assert list(zip(a, b)) == want

    @pytest.mark.parametrize("k_pos, k_neg", [(1, 2), (2, 2), (3, 7), (40, 25)])
    def test_pair_decoder_offsets_the_negative_class(self, k_pos, k_neg):
        # both classes at once: every within pair, in a shuffled flat order
        rng = np.random.default_rng(k_pos + k_neg)
        ids = rng.permutation(10 * (k_pos + k_neg))[: k_pos + k_neg]
        pos, neg = np.sort(ids[:k_pos]), np.sort(ids[k_pos:])
        want = [(c[i], c[j]) for c in (pos, neg) for i in range(len(c)) for j in range(i + 1, len(c))]
        flat = rng.permutation(len(want))
        a, b = _typed_pairs(flat, pos, neg, False)
        assert list(zip(a, b)) == [want[f] for f in flat]


class TestOperators:
    def test_path2_rows(self, path2):
        mask = EdgeMask(np.full(path2.m, logit(0.5)))
        op = propagation_operator(path2, mask).toarray()
        np.testing.assert_allclose(op, [[0, 1], [1, 0]])

    def test_uniform_mask_equals_unmasked(self):
        rng = np.random.default_rng(1)
        g = random_test_graph(rng, 10, 0.3)
        w = propagation_operator(g, EdgeMask(np.full(g.m, logit(0.3)))).toarray()
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
        g = random_test_graph(rng, int(rng.integers(2, 15)), 0.3)
        mask = init_mask(g)
        mask.theta[:] = rng.normal(size=g.m)
        p = propagation_operator(g, mask).toarray()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
        assert (p >= 0).all()
        s = gcn_operator(g, mask).toarray()
        np.testing.assert_allclose(s, s.T, atol=1e-12)


def _lexsort_layout(g, loops):
    """Reference CSR pattern: the slots sorted by (row, column) with np.lexsort."""
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([i, j, loops]), np.concatenate([j, i, loops])
    edge = np.concatenate([np.arange(g.m), np.arange(g.m), np.full(loops.size, g.m)])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=g.n))])
    return indptr, cols[order], edge[order]


class TestLayouts:
    @pytest.mark.parametrize("case", ["isolated", "no_edges", "single_node", "planted"])
    def test_match_a_lexsort_build(self, case):
        g = {
            "isolated": lambda: _graph(7, [(0, 3), (3, 5), (1, 5)]),  # nodes 2, 4, 6 isolated
            "no_edges": lambda: _graph(4, []),
            "single_node": lambda: _graph(1, []),
            "planted": lambda: generate_planted(PlantedConfig(
                n=500, pi_p=0.3, h=0.6, avg_degree=6.0, feature_dim=4,
                feature_separation=1.0, seed=11)),
        }[case]()
        for lay, loops in [(g._propagation_layout, np.flatnonzero(g.degrees() == 0)),
                           (g._gcn_layout, np.arange(g.n))]:
            for got, want in zip((lay.indptr, lay.indices, lay.edge), _lexsort_layout(g, loops)):
                assert got.dtype == np.int32
                assert not got.flags.writeable
                np.testing.assert_array_equal(got, want)


class TestMask:
    def test_weights_in_open_interval(self):
        rng = np.random.default_rng(2)
        g = random_test_graph(rng, 8, 0.3)
        mask = init_mask(g)
        mask.theta[:] = rng.normal(scale=10, size=g.m)
        w = mask.weights()
        assert ((w > 0) & (w < 1)).all()

    def test_init_near_default(self):
        g = _graph(2, [(0, 1)])
        np.testing.assert_allclose(init_mask(g).weights(), 0.95, atol=1e-12)


def _same_csr(a, b):
    for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestHeldOperator:
    """A mask keeps its last propagation operator while the graph and theta
    are unchanged; whatever it hands back matches a fresh mask's build."""

    @staticmethod
    def planted(h=0.6):
        return generate_planted(PlantedConfig(n=200, h=h, avg_degree=5, seed=4))

    def test_reused_while_unchanged(self):
        g = self.planted()
        mask = EdgeMask(np.random.default_rng(0).normal(size=g.m))
        op = propagation_operator(g, mask)
        assert propagation_operator(g, mask) is op
        _same_csr(op, propagation_operator(g, EdgeMask(mask.theta.copy())))

    def test_theta_changed_in_place_rebuilds(self):
        g = self.planted()
        mask = EdgeMask(np.random.default_rng(1).normal(size=g.m))
        old = propagation_operator(g, mask)
        mask.theta[3] += 0.25
        op = propagation_operator(g, mask)
        assert op is not old
        _same_csr(op, propagation_operator(g, EdgeMask(mask.theta.copy())))

    def test_another_graph_with_the_same_edge_count_rebuilds(self):
        g = self.planted()
        r = rewire_to_heterophily(g, 0.2, seed=5)
        assert r.m == g.m and not np.array_equal(r.edges, g.edges)
        mask = EdgeMask(np.random.default_rng(2).normal(size=g.m))
        propagation_operator(g, mask)
        _same_csr(propagation_operator(r, mask), propagation_operator(r, EdgeMask(mask.theta.copy())))
        _same_csr(propagation_operator(g, mask), propagation_operator(g, EdgeMask(mask.theta.copy())))

    def test_optimize_mask_returns_the_operator_its_line_search_built(self):
        g = self.planted()
        split = make_pu_split(g, 0.5, seed=4)
        out = optimize_mask(g, init_mask(g), PropagationConfig(alpha=0.5, k_prop=4),
                            split.P, split.U[::4], steps=5, lr=0.2)
        held = out._held[2]
        assert propagation_operator(g, out) is held
        _same_csr(held, propagation_operator(g, EdgeMask(out.theta.copy())))

    def test_held_values_are_read_only(self):
        g = self.planted()
        op = propagation_operator(g, init_mask(g))
        with pytest.raises(ValueError, match="read-only"):
            op.data[0] = 0.0


def test_setup_path_avoids_hashed_set_operations(monkeypatch):
    """Planting a graph, splitting it and rewiring it use sorts and marks:
    from numpy 2.3 on, np.unique and the set routines built on it hash
    integer input first, which costs several times a sort."""
    for name in ("unique", "setdiff1d", "isin"):
        def hashed(*args, _name=name, **kwargs):
            raise AssertionError(f"np.{_name} called on the set-up path")
        monkeypatch.setattr(np, name, hashed)
    g = generate_planted(PlantedConfig(n=400, h=0.3, avg_degree=6, seed=1))
    split = make_pu_split(g, 0.5, seed=1)
    assert split.P.size + split.U.size == g.n
    for target in (0.1, 0.7):
        assert abs(heterophily_ratio(rewire_to_heterophily(g, target, seed=2)) - target) <= 0.02

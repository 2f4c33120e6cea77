"""Bit-for-bit checks of the fast paths against the plain formulations
they replace: operators built from COO matrices, the plain
propagation recursion and anchor-loss means, a plain form of the
one-vector mask-gradient arithmetic, and the quadratic tail counts of the
prior estimator. Outputs and traces are held to exact equality, so
these compare with array_equal. The one exception is the mask gradient
against its two-column (einsum) form: the two-class identity reorders the
arithmetic, so they agree to rounding, and an extended-precision dense
evaluation shows which of the two is nearer the exact value."""

import numpy as np
import pytest
import scipy.sparse as sp

from gpl.cpe import estimate_prior
from gpl.graph import (
    EdgeMask,
    build_graph,
    gcn_operator,
    init_mask,
    propagation_operator,
    rewire_to_heterophily,
)
from gpl.metrics import random_test_graph
from gpl.propagation import LOG_EPS, PropagationConfig, _lpl_at, lpl_gradient, lpl_loss, propagate
from gpl.synth import PlantedConfig, generate_planted


def coo_adjacency(g, mask):
    w = np.ones(g.m) if mask is None else mask.weights()
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    return sp.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(g.n, g.n))


def coo_propagation(g, mask):
    W = coo_adjacency(g, mask)
    d = np.asarray(W.sum(axis=1)).ravel()
    iso = d == 0
    inv = np.zeros_like(d)
    inv[~iso] = 1.0 / d[~iso]
    P = sp.diags(inv) @ W
    if iso.any():
        P = P + sp.diags(iso.astype(np.float64))
    return P.tocsr().sorted_indices()


def coo_gcn(g, mask):
    # each entry as w_ij * (dinv_i * dinv_j), the symmetric rounding of S
    W = coo_adjacency(g, mask) + sp.eye(g.n, format="csr")
    dinv = 1.0 / np.sqrt(np.asarray(W.sum(axis=1)).ravel())
    W = W.tocoo()
    S = sp.coo_matrix((W.data * (dinv[W.row] * dinv[W.col]), (W.row, W.col)), shape=W.shape)
    return S.tocsr().sorted_indices()


def assert_same_csr(a, b):
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, part), getattr(b, part), err_msg=part)


def random_mask(rng, g):
    return EdgeMask(rng.normal(0.0, 2.0, size=g.m))


def ring(n):
    return build_graph(n, [(k, (k + 1) % n) for k in range(n)],
                       np.zeros((n, 1)), np.ones(n, dtype=int))


def graphs():
    rng = np.random.default_rng(11)
    yield "ring", ring(9)  # no isolated node
    yield "isolated", build_graph(7, [(0, 1), (1, 2), (4, 6)],
                                  np.zeros((7, 1)), np.ones(7, dtype=int))
    yield "no_edges", build_graph(4, [], np.zeros((4, 1)), np.ones(4, dtype=int))
    for k in range(6):
        yield f"random{k}", random_test_graph(rng, 15, 0.15 + 0.1 * k)
    yield "planted", generate_planted(PlantedConfig(n=400, h=0.7, seed=3))


@pytest.mark.parametrize("name,g", list(graphs()))
def test_operators_match_coo_build(name, g):
    rng = np.random.default_rng(5)
    # several masks on one graph object: the cached pattern must not keep values
    for mask in (None, random_mask(rng, g), random_mask(rng, g)):
        assert_same_csr(propagation_operator(g, mask), coo_propagation(g, mask))
        assert_same_csr(gcn_operator(g, mask), coo_gcn(g, mask))


def test_rewired_graph_gets_its_own_pattern():
    g = generate_planted(PlantedConfig(n=300, h=0.2, seed=1))
    propagation_operator(g, None)
    gcn_operator(g, None)
    r = rewire_to_heterophily(g, 0.8, seed=2)
    assert not np.array_equal(r.edges, g.edges)
    mask = random_mask(np.random.default_rng(0), r)
    assert_same_csr(propagation_operator(r, mask), coo_propagation(r, mask))
    assert_same_csr(gcn_operator(r, mask), coo_gcn(r, mask))
    assert propagation_operator(r, None).indices is not propagation_operator(g, None).indices


@pytest.mark.parametrize("n", [1000, 4000])
def test_gcn_operator_is_exactly_symmetric(n):
    # the classifier step takes the adjoint S.T @ v as S @ v
    g = generate_planted(PlantedConfig(n=n, h=0.7, seed=n))
    for mask in (None, init_mask(g), random_mask(np.random.default_rng(n), g)):
        S = gcn_operator(g, mask)
        assert (S != S.T).nnz == 0


def test_mask_length_checked():
    g = ring(5)
    with pytest.raises(ValueError, match="edges"):
        propagation_operator(g, EdgeMask(np.zeros(g.m - 1)))


def coo_states(g, mask, e0, cfg):
    op = coo_propagation(g, mask)
    states = [np.array(e0, dtype=np.float64, copy=True)]
    for _ in range(cfg.k_prop):
        states.append(cfg.alpha * states[-1] + (1.0 - cfg.alpha) * (op @ states[-1]))
    return op, states


@pytest.mark.parametrize("name,g", list(graphs()))
def test_propagate_matches_plain_recursion(name, g):
    # propagate updates each state in place; the states must keep the bits
    # of alpha*E + (1-alpha) * (op @ E)
    rng = np.random.default_rng(8)
    mask = random_mask(rng, g)
    e0 = rng.dirichlet([1.0, 1.0], size=g.n)
    cfg = PropagationConfig(alpha=0.35, k_prop=7)
    got = propagate(propagation_operator(g, mask), e0, cfg)
    want = coo_states(g, mask, e0, cfg)[1]
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(a, b, err_msg=f"E_{k}")


def einsum_lpl_gradient(g, mask, e0, cfg, pos, neg):
    """The mask gradient with two-column adjoints, row gathers and einsum,
    as first written."""
    K = cfg.k_prop
    w = mask.weights()
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    wdir = np.concatenate([w, w])
    d = np.asarray(coo_adjacency(g, mask).sum(axis=1)).ravel()
    op, states = coo_states(g, mask, e0, cfg)
    G = np.zeros_like(states[-1])
    bp = states[-1][pos, 1]
    live = bp > LOG_EPS
    G[pos[live], 1] = 1.0 / (len(pos) * (bp[live] + LOG_EPS))
    if neg.size:
        bn = states[-1][neg, 0]
        live = bn > LOG_EPS
        G[neg[live], 0] = 1.0 / (len(neg) * (bn[live] + LOG_EPS))
    opT = op.T.tocsr()
    gamma = np.zeros(2 * g.m)
    for k in range(K, 0, -1):
        gamma += (1.0 - cfg.alpha) * np.einsum("ec,ec->e", G[rows], states[k - 1][cols])
        if k > 1:
            G = cfg.alpha * G + (1.0 - cfg.alpha) * (opT @ G)
    pdir = wdir / d[rows]
    r = np.zeros(g.n)
    np.add.at(r, rows, gamma * pdir)
    grad_dir = (gamma - r[rows]) / d[rows]
    return (grad_dir[: g.m] + grad_dir[g.m:]) * w * (1.0 - w)


def one_vector_lpl_gradient(g, mask, e0, cfg, pos, neg):
    """The mask gradient on the adjoint difference delta = G0 - G1, one
    directed edge per entry of the concatenated rows/cols."""
    K = cfg.k_prop
    w = mask.weights()
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    d = np.asarray(coo_adjacency(g, mask).sum(axis=1)).ravel()
    op, states = coo_states(g, mask, e0, cfg)
    delta = np.zeros(g.n)
    bp = states[-1][pos, 1]
    live = bp > LOG_EPS
    delta[pos[live]] = -1.0 / (len(pos) * (bp[live] + LOG_EPS))
    if neg.size:
        bn = states[-1][neg, 0]
        live = bn > LOG_EPS
        delta[neg[live]] = 1.0 / (len(neg) * (bn[live] + LOG_EPS))
    opT = op.T.tocsr()
    gamma = np.zeros(2 * g.m)
    for k in range(K, 0, -1):
        gamma += delta[rows] * states[k - 1][cols, 0]
        if k > 1:
            delta = cfg.alpha * delta + (1.0 - cfg.alpha) * (opT @ delta)
    gamma *= 1.0 - cfg.alpha
    # each direction is summed on its own and the two sums added, the
    # order in which lpl_gradient rounds
    r_fwd, r_back = np.zeros(g.n), np.zeros(g.n)
    np.add.at(r_fwd, i, gamma[: g.m] * w)
    np.add.at(r_back, j, gamma[g.m:] * w)
    r = r_fwd + r_back
    grad_dir = (gamma - r[rows] / d[rows]) / d[rows]
    return (grad_dir[: g.m] + grad_dir[g.m:]) * w * (1.0 - w)


def longdouble_lpl_gradient(g, mask, e0, cfg, pos, neg):
    """The two-column formula on dense np.longdouble matrices, from the
    float64 edge weights and e0 that lpl_gradient sees."""
    ld = np.longdouble
    w = mask.weights().astype(ld)
    i, j = g.edges[:, 0], g.edges[:, 1]
    A = np.zeros((g.n, g.n), dtype=ld)
    A[i, j] = w
    A[j, i] = w
    d = A.sum(axis=1)
    iso = d == 0
    d[iso] = 1
    P = A / d[:, None]
    P[iso, iso] = 1
    a, b = ld(cfg.alpha), 1 - ld(cfg.alpha)
    states = [np.asarray(e0, dtype=ld)]
    for _ in range(cfg.k_prop):
        states.append(a * states[-1] + b * (P @ states[-1]))
    G = np.zeros_like(states[-1])
    for nodes, col in ((pos, 1), (neg, 0)):
        live = nodes[states[-1][nodes, col] > LOG_EPS]
        G[live, col] = 1 / (len(nodes) * (states[-1][live, col] + ld(LOG_EPS)))
    gamma = np.zeros((g.n, g.n), dtype=ld)
    for k in range(cfg.k_prop, 0, -1):
        gamma += b * (G @ states[k - 1].T)
        G = a * G + b * (P.T @ G)
    r = (gamma * P).sum(axis=1)
    dA = (gamma - r[:, None]) / d[:, None]
    return (dA[i, j] + dA[j, i]) * w * (1 - w)


def gradient_problem(g):
    rng = np.random.default_rng(7)
    cfg = PropagationConfig(alpha=0.4, k_prop=6)
    e0 = rng.dirichlet([1.0, 1.0], size=g.n)
    nodes = rng.permutation(g.n)
    pos, neg = np.sort(nodes[: max(1, g.n // 3)]), np.sort(nodes[g.n // 3: g.n // 2])
    return random_mask(rng, g), e0, cfg, pos, neg


def recorded_lpl_gradient(g, mask, e0, cfg, pos, neg):
    """lpl_gradient on the belief states propagate returns from e0."""
    return lpl_gradient(g, mask, propagate(propagation_operator(g, mask), e0, cfg), cfg, pos, neg)


EDGED = [(n, g) for n, g in graphs() if g.m]


@pytest.mark.parametrize("name,g", EDGED)
def test_lpl_gradient_matches_one_vector_form(name, g):
    mask, e0, cfg, pos, neg = gradient_problem(g)
    got = recorded_lpl_gradient(g, mask, e0, cfg, pos, neg)
    np.testing.assert_array_equal(got, one_vector_lpl_gradient(g, mask, e0, cfg, pos, neg))


@pytest.mark.parametrize("name,g", EDGED)
def test_lpl_gradient_matches_einsum_form(name, g):
    mask, e0, cfg, pos, neg = gradient_problem(g)
    got = recorded_lpl_gradient(g, mask, e0, cfg, pos, neg)
    old = einsum_lpl_gradient(g, mask, e0, cfg, pos, neg)
    assert np.abs(got - old).max() <= 1e-13 * np.abs(old).max()


@pytest.mark.parametrize("name,g", EDGED)
def test_lpl_at_matches_lpl_loss(name, g):
    # the line search's loss on anchor arrays read once, against the checked
    # lpl_loss and the plain means on the same states, over ten problems a
    # graph: a one-ulp slip in a mean shows on only some of them
    rng = np.random.default_rng(9)
    for _ in range(10):
        mask, e0 = random_mask(rng, g), rng.dirichlet([1.0, 1.0], size=g.n)
        cfg = PropagationConfig(alpha=float(rng.uniform(0.2, 0.8)), k_prop=int(rng.integers(1, 6)))
        nodes, k = rng.permutation(g.n), int(rng.integers(1, g.n))
        pos, neg = np.sort(nodes[:k]), np.sort(nodes[k:])
        loss, states = _lpl_at(g, mask, e0, cfg, pos, neg)
        for a, b in zip(states, coo_states(g, mask, e0, cfg)[1]):
            np.testing.assert_array_equal(a, b)
        final = states[-1]
        plain = float(np.mean(np.log(final[pos, 1] + LOG_EPS))) + float(np.mean(np.log(final[neg, 0] + LOG_EPS)))
        assert loss == lpl_loss(final, pos, neg) == plain


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16, reason="longdouble is no wider than float64")
@pytest.mark.parametrize("name,g", [(n, g) for n, g in EDGED if g.n < 100])
def test_lpl_gradient_near_longdouble_value(name, g):
    mask, e0, cfg, pos, neg = gradient_problem(g)
    got = recorded_lpl_gradient(g, mask, e0, cfg, pos, neg)
    ref = longdouble_lpl_gradient(g, mask, e0, cfg, pos, neg)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_prior_tails_match_quadratic_counts():
    rng = np.random.default_rng(4)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for _ in range(20):
        # few distinct values so that ties are common, with 0 and 1 present
        sp_ = np.concatenate([rng.choice(grid, 30), rng.random(10), [0.0, 1.0]])
        su = np.concatenate([rng.choice(grid, 50), rng.random(20), [1.0]])
        est = estimate_prior(sp_, su, q_floor=0.0)
        cand = np.array([row[0] for row in est.curve])
        np.testing.assert_array_equal(cand, np.unique(np.concatenate([sp_, su, [0.0]])))
        q_u = (su[None, :] >= cand[:, None]).mean(axis=1)
        q_p = (sp_[None, :] >= cand[:, None]).mean(axis=1)
        np.testing.assert_array_equal([row[1] for row in est.curve], q_u)
        np.testing.assert_array_equal([row[2] for row in est.curve], q_p)

"""Evaluation metrics and executable oracles for the propagation and
aggregation claims: influence accounting, distance contraction, gradient
checks, and conservation checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logit

from .cpe import _as_scores
from .gnn import Workspace, forward, init_classifier, loss_gradients, pu_loss
from .graph import (EdgeMask, GraphError, SparseGraph, _array, _edge_weights, _node_ids, build_graph,
                    gcn_operator, propagation_operator)
from .propagation import PropagationConfig, _anchor_beliefs, _check_anchor_sets, _lpl_at, lpl_gradient, propagate
from .synth import PlantedConfig, generate_planted


def f1_score(pred, truth, eval_set) -> float:
    """F1 of the +1 class over eval_set; 0 when precision + recall is 0.
    pred and truth must be vectors of the same length."""
    pred, truth = _array(pred, "pred", ("n",), GraphError), _array(truth, "truth", ("n",), GraphError)
    if len(pred) != len(truth):
        raise GraphError(f"pred has {len(pred)} entries but truth has {len(truth)}")
    (idx,) = _node_ids(len(pred), eval_set)
    if idx.size == 0:
        raise GraphError("eval_set is empty")
    p, t = pred[idx], truth[idx]
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == -1)))
    fn = int(np.sum((p == -1) & (t == 1)))
    return 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


FD_STEP = 1e-6


def heterophily_influence(op, e0, cfg, a: int, b: int) -> float:
    """Sensitivity of node a's propagated negative belief to node b's initial
    one, under the propagation operator op.

    Central finite differences on row b of the initial beliefs, moving the
    pair of entries in opposite directions so the row stays on the simplex.
    """
    n = op.shape[0]
    a, b = _node_ids(n, [a, b], error=ValueError)[0]
    if a == b:
        raise ValueError("source and target must differ")
    e0 = _array(e0, "initial beliefs", (n, 2), ValueError)
    step = np.zeros((n, 2))
    step[b] = (-FD_STEP, FD_STEP)
    fa = propagate(op, e0 + step, cfg)[-1][a, 1]
    fb = propagate(op, e0 - step, cfg)[-1][a, 1]
    return float(abs(fa - fb) / (2 * FD_STEP))


def check_influence_sum(g, mask, e0, cfg, a: int):
    """Total influence on node a versus its own belief shift.

    Returns (sum_hi, delta, residual) with delta = |P(y_a=-1)^(K) - P(y_a=-1)^(0)|.
    The two agree (residual ~ 0) when every node other than a starts at a
    pure [0, 1] belief, which is how validation instances are built.
    """
    op = propagation_operator(g, mask)
    total = 0.0
    for b in np.flatnonzero(np.arange(g.n) != a):
        total += heterophily_influence(op, e0, cfg, a, b)
    out = propagate(op, e0, cfg)[-1]
    delta = abs(float(out[a, 1] - e0[a, 1]))
    return total, delta, abs(total - delta)


def _embeddings(x, n: int) -> np.ndarray:
    """x as an n x D float64 matrix; an n-vector is read as one column."""
    try:
        return _array(x, "embeddings", (n,), ValueError)[:, None]
    except ValueError:
        return _array(x, "embeddings", (n, "D"), ValueError)


def dpn_distance(embeddings, g: SparseGraph, op) -> float:
    """Cross-class embedding distance, weighted by the diffusion operator.

    0.5 * sum over adjacent (i in P, j in N) of P_ij * ||x_i - x_j||^2,
    with P = op, the row-stochastic operator of the (masked) graph g.
    """
    if op.shape != (g.n, g.n):
        raise ValueError(f"operator shape {op.shape} does not match a graph of {g.n} nodes")
    x = _embeddings(embeddings, g.n)
    if not g.cross.any():
        return 0.0
    e = g.edges[g.cross]
    # orient each cross edge as (positive endpoint, negative endpoint)
    swap = g.labels[e[:, 0]] == -1
    a = np.where(swap, e[:, 1], e[:, 0])
    b = np.where(swap, e[:, 0], e[:, 1])
    wts = np.asarray(op[a, b]).ravel()
    d2 = ((x[a] - x[b]) ** 2).sum(axis=1)
    return float(0.5 * np.sum(wts * d2))


def check_aggregation_contraction(g: SparseGraph, mask: EdgeMask | None, embeddings):
    """One diffusion step h = P x; returns (before, after) cross-class distances.

    The claim under test is after <= before + 1e-9. This function only
    measures; callers decide whether a violation fails their run.
    """
    x = _embeddings(embeddings, g.n)
    op = propagation_operator(g, mask)
    return dpn_distance(x, g, op), dpn_distance(op @ x, g, op)


def irreducibility_diagnostic(scores) -> float:
    """The 0.99 quantile of posterior scores.

    Finite-sample stand-in for the essential supremum of P(y=+1 | x, G):
    a value far below 1 signals that no node region is confidently positive,
    which breaks the identifiability assumption behind prior estimation.
    """
    return float(np.quantile(_as_scores(scores, "posterior"), 0.99))


def edge_weight_means(g: SparseGraph, mask: EdgeMask | None):
    """(mean weight on homophilic edges, mean on heterophilic edges); nan if absent."""
    w = _edge_weights(g, mask)
    hetero = g.cross
    homo_mean = float(np.mean(w[~hetero])) if (~hetero).any() else float("nan")
    het_mean = float(np.mean(w[hetero])) if hetero.any() else float("nan")
    return homo_mean, het_mean


# ---------------------------------------------------------------------------
# validation suite: fixed-seed instance generators and batch checks shared by
# the `validate` subcommand and the acceptance tests


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    worst: float
    threshold: float
    passed: bool


def random_test_graph(rng, n: int, p: float) -> SparseGraph:
    """Erdos-Renyi-style labeled graph for oracle checks."""
    upper = np.triu(rng.random((n, n)) < p, 1)
    edges = np.argwhere(upper)
    if edges.shape[0] == 0:
        edges = np.array([[0, 1 % n]]) if n > 1 else np.zeros((0, 2), dtype=int)
    labels = rng.choice([-1, 1], size=n)
    feats = rng.normal(size=(n, 3))
    return build_graph(n, edges, feats, labels)


def random_mask(rng, g: SparseGraph) -> EdgeMask:
    return EdgeMask(logit(rng.uniform(0.05, 0.95, size=g.m)))


def _random_anchor_beliefs(rng, g):
    n = g.n
    k_pos = int(rng.integers(1, max(2, n // 3)))
    perm = rng.permutation(n)
    pos = perm[:k_pos]
    k_neg = int(rng.integers(0, max(1, n // 3)))
    neg = perm[k_pos : k_pos + k_neg]
    return _anchor_beliefs(n, pos, neg), pos, neg


def _suite(name: str, trials: int, seed: int, threshold: float, measure) -> CheckResult:
    """Worst of `trials` values of measure(rng), drawn from one generator
    seeded with `seed`; the check passes when the worst is <= threshold."""
    rng = np.random.default_rng(seed)
    worst = float(max(measure(rng) for _ in range(trials)))
    return CheckResult(name, trials, worst, threshold, worst <= threshold)


def _central_diff(f, x: np.ndarray) -> np.ndarray:
    """Central differences of the scalar f() in each entry of x, which f
    reads; each entry is moved by +/- 1e-5 in place and then restored."""
    step = 1e-5
    out = np.zeros_like(x)
    for k in np.ndindex(x.shape):
        orig = x[k]
        x[k] = orig + step
        hi = f()
        x[k] = orig - step
        lo = f()
        x[k] = orig
        out[k] = (hi - lo) / (2 * step)
    return out


def fd_lpl_gradient(g, mask, cfg, positives, negatives):
    """Central-difference oracle for the mask gradient: it differentiates
    propagation._lpl_at from the E_0 the anchor sets define, the same
    evaluation optimize_mask's line search makes."""
    pos, neg = _check_anchor_sets(g.n, positives, negatives)
    e0 = _anchor_beliefs(g.n, pos, neg)
    probe = EdgeMask(mask.theta.copy())  # each in-place move of its theta rebuilds the operator
    return _central_diff(lambda: _lpl_at(g, probe, e0, cfg, pos, neg)[0], probe.theta)


def _rel_err(analytic, numeric, floor=1e-8):
    keep = np.abs(analytic) > floor
    if not keep.any():
        return 0.0
    a, b = analytic[keep], numeric[keep]
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))))


def check_lpl_gradient_suite() -> CheckResult:
    def measure(rng):
        n = int(rng.integers(4, 13))
        g = random_test_graph(rng, n, rng.uniform(0.3, 0.7))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(alpha=float(rng.uniform(0.2, 0.8)), k_prop=int(rng.integers(1, 5)))
        e0, pos, neg = _random_anchor_beliefs(rng, g)
        grad = lpl_gradient(g, mask, propagate(propagation_operator(g, mask), e0, cfg), cfg, pos, neg)
        return _rel_err(grad, fd_lpl_gradient(g, mask, cfg, pos, neg))

    return _suite("lpl_gradient_fd", 20, 1, 1e-4, measure)


def fd_classifier_gradients(state, op, X, positives, negatives):
    """Central-difference oracle for the classifier gradient, laid out like
    state.theta."""
    return _central_diff(lambda: pu_loss(forward(state, op, X), positives, negatives), state.theta)


def check_clf_gradient_suite() -> CheckResult:
    def measure(rng):
        n = int(rng.integers(4, 11))
        g = random_test_graph(rng, n, rng.uniform(0.3, 0.7))
        mask = random_mask(rng, g)
        op = gcn_operator(g, mask)
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        state = init_classifier(d, hidden=3, seed=int(rng.integers(0, 2**31)))
        nodes = rng.permutation(n)
        k = int(rng.integers(1, n))
        pos, neg = nodes[:k], nodes[k:]
        grad, _ = loss_gradients(state, Workspace(op, X, 3, pos, neg))
        return _rel_err(grad, fd_classifier_gradients(state, op, X, pos, neg))

    return _suite("clf_gradient_fd", 20, 2, 1e-4, measure)


def check_row_stochastic_suite() -> CheckResult:
    def measure(rng):
        n = int(rng.integers(4, 41))
        g = random_test_graph(rng, n, rng.uniform(0.05, 0.5))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(
            alpha=float(rng.uniform(0.05, 0.95)), k_prop=int(rng.integers(0, 9))
        )
        e0 = _random_anchor_beliefs(rng, g)[0]
        out = propagate(propagation_operator(g, mask), e0, cfg)[-1]
        return np.max(np.abs(out.sum(axis=1) - 1.0))

    return _suite("belief_row_sums", 100, 0, 1e-10, measure)


def check_influence_suite() -> CheckResult:
    def measure(rng):
        n = int(rng.integers(4, 21))
        g = random_test_graph(rng, n, rng.uniform(0.15, 0.6))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(
            alpha=float(rng.uniform(0.2, 0.8)), k_prop=int(rng.integers(1, 5))
        )
        a = int(rng.integers(n))
        # everyone pure negative except the probed source
        e0 = _anchor_beliefs(n, [a], np.delete(np.arange(n), a))
        return check_influence_sum(g, mask, e0, cfg, a)[2]

    return _suite("influence_sum_identity", 50, 3, 1e-6, measure)


def contraction_instance(rng):
    """One random instance for the contraction check: a moderately dense
    30-node graph, random edge weights, random labels, iid embeddings."""
    n, p = 30, 0.3
    d = 1 if rng.random() < 0.6 else 5
    upper = np.triu(rng.random((n, n)) < p, 1)
    edges = np.argwhere(upper)
    labels = rng.choice([-1, 1], size=n)
    wfull = rng.uniform(0.05, 1.0, size=(n, n))
    x = rng.normal(size=(n, d))
    g = build_graph(n, edges, np.zeros((n, 1)), labels)
    w = wfull[g.edges[:, 0], g.edges[:, 1]]
    return g, EdgeMask(logit(w)), x


def check_contraction_suite() -> CheckResult:
    def measure(rng):
        before, after = check_aggregation_contraction(*contraction_instance(rng))
        return after - before

    return _suite("aggregation_contraction", 100, 0, 1e-9, measure)


def irreducibility_checks() -> list[CheckResult]:
    """Paired diagnostic on matched planted graphs, one homophilic and one
    strongly heterophilic: reveal half the labels as pure beliefs, propagate
    20 steps over the unit-weight propagation_operator with the revealed
    rows reset to their labels after each step, and read the 0.99 quantile
    of the positive belief the hidden positives attain. Near 1 on the
    homophilic graph, visibly capped on the mixed one. A trained
    discriminator is no stand-in here: it saturates its logits on both
    graphs, so the propagation fixed point is what gets diagnosed."""
    diags = {}
    step = PropagationConfig(alpha=0.2, k_prop=1)
    for h in (0.0, 0.9):
        g = generate_planted(PlantedConfig(
            n=400, pi_p=0.5, h=h, avg_degree=8.0,
            feature_dim=4, feature_separation=1.0, seed=7,
        ))
        # reveal-split seed must differ from the graph seed: the generator
        # places positives with the same permutation stream, and reusing it
        # here would make the hidden half exactly the planted negatives
        perm = np.random.default_rng(11).permutation(g.n)
        revealed, hidden = perm[: g.n // 2], perm[g.n // 2 :]
        e0 = _anchor_beliefs(g.n, revealed[g.labels[revealed] == 1],
                             revealed[g.labels[revealed] == -1])
        op, beliefs = propagation_operator(g, None), e0
        for _ in range(20):
            beliefs = propagate(op, beliefs, step)[-1]
            beliefs[revealed] = e0[revealed]  # revealed labels stay revealed
        scores = beliefs[hidden[g.labels[hidden] == 1], 0]
        # beliefs off the simplex (a broken operator) fail the check, not raise
        diags[h] = irreducibility_diagnostic(scores) if np.all((scores >= 0) & (scores <= 1)) else float("nan")
    gap = diags[0.0] - diags[0.9]
    return [
        CheckResult("irreducibility_homophilic", 1, diags[0.0], 0.9, diags[0.0] >= 0.9),
        CheckResult("irreducibility_gap", 1, gap, 0.15, gap >= 0.15),
    ]


def run_validation_suite() -> list[CheckResult]:
    """All oracle checks at their contract sizes, fixed seeds."""
    return [
        check_row_stochastic_suite(),
        check_lpl_gradient_suite(),
        check_clf_gradient_suite(),
        check_influence_suite(),
        check_contraction_suite(),
    ] + irreducibility_checks()

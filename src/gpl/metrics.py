"""Evaluation metrics and executable oracles for the propagation and
aggregation claims: influence accounting, distance contraction, gradient
checks, and conservation checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logit

from .gnn import forward, init_classifier, loss_gradients, pu_loss
from .graph import EdgeMask, SparseGraph, _edge_weights, _node_ids, build_graph, propagation_operator
from .propagation import (
    PropagationConfig,
    lpl_gradient,
    lpl_loss,
    propagate,
)


def f1_score(pred, truth, eval_set) -> float:
    """F1 of the +1 class over eval_set; 0 when precision + recall is 0."""
    idx = _node_ids(eval_set)
    if idx.size == 0:
        raise ValueError("eval_set is empty")
    p = np.asarray(pred)[idx]
    t = np.asarray(truth)[idx]
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == -1)))
    fn = int(np.sum((p == -1) & (t == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


FD_STEP = 1e-6


def heterophily_influence(g, mask, e0, cfg, a: int, b: int) -> float:
    """Sensitivity of node a's propagated negative belief to node b's initial one.

    Central finite differences on row b of the initial beliefs, moving the
    pair of entries in opposite directions so the row stays on the simplex.
    """
    if a == b:
        raise ValueError("source and target must differ")
    op = propagation_operator(g, mask)
    hi, lo = np.array(e0, copy=True), np.array(e0, copy=True)
    hi[b, 1] += FD_STEP
    hi[b, 0] -= FD_STEP
    lo[b, 1] -= FD_STEP
    lo[b, 0] += FD_STEP
    fa = propagate(op, hi, cfg)[a, 1]
    fb = propagate(op, lo, cfg)[a, 1]
    return float(abs(fa - fb) / (2 * FD_STEP))


def check_influence_sum(g, mask, e0, cfg, a: int):
    """Total influence on node a versus its own belief shift.

    Returns (sum_hi, delta, residual) with delta = |P(y_a=-1)^(K) - P(y_a=-1)^(0)|.
    The two agree (residual ~ 0) when every node other than a starts at a
    pure [0, 1] belief, which is how validation instances are built.
    """
    op = propagation_operator(g, mask)
    total = 0.0
    for b in range(g.n):
        if b == a:
            continue
        total += heterophily_influence(g, mask, e0, cfg, a, b)
    out = propagate(op, np.array(e0, copy=True), cfg)
    delta = abs(float(out[a, 1] - e0[a, 1]))
    return total, delta, abs(total - delta)


def dpn_distance(embeddings, g: SparseGraph, mask: EdgeMask | None = None) -> float:
    """Cross-class embedding distance, weighted by the diffusion operator.

    0.5 * sum over adjacent (i in P, j in N) of P_ij * ||x_i - x_j||^2,
    with P the row-stochastic operator of the masked graph.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if g.m == 0:
        return 0.0
    li = g.labels[g.edges[:, 0]]
    lj = g.labels[g.edges[:, 1]]
    hetero = li != lj
    if not hetero.any():
        return 0.0
    e = g.edges[hetero]
    # orient each cross edge as (positive endpoint, negative endpoint)
    swap = g.labels[e[:, 0]] == -1
    a = np.where(swap, e[:, 1], e[:, 0])
    b = np.where(swap, e[:, 0], e[:, 1])
    op = propagation_operator(g, mask)
    wts = np.asarray(op[a, b]).ravel()
    d2 = ((x[a] - x[b]) ** 2).sum(axis=1)
    return float(0.5 * np.sum(wts * d2))


def check_aggregation_contraction(g: SparseGraph, mask: EdgeMask | None, embeddings):
    """One diffusion step h = P x; returns (before, after) cross-class distances.

    The claim under test is after <= before + 1e-9. This function only
    measures; callers decide whether a violation fails their run.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    op = propagation_operator(g, mask)
    before = dpn_distance(x, g, mask)
    after = dpn_distance(op @ x, g, mask)
    return before, after


def irreducibility_diagnostic(scores, quantile: float = 0.01) -> float:
    """Upper (1 - quantile) quantile of posterior scores.

    Finite-sample stand-in for the essential supremum of P(y=+1 | x, G):
    a value far below 1 signals that no node region is confidently positive,
    which breaks the identifiability assumption behind prior estimation.
    """
    s = np.asarray(scores, dtype=np.float64)
    if np.any((s < 0) | (s > 1)):
        raise ValueError("scores must lie in [0, 1]")
    return float(np.quantile(s, 1.0 - quantile))


def edge_weight_means(g: SparseGraph, mask: EdgeMask | None):
    """(mean weight on homophilic edges, mean on heterophilic edges); nan if absent."""
    w = _edge_weights(g, mask)
    li = g.labels[g.edges[:, 0]]
    lj = g.labels[g.edges[:, 1]]
    hetero = li != lj
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
    e0 = np.full((n, 2), 0.5)
    k_pos = int(rng.integers(1, max(2, n // 3)))
    perm = rng.permutation(n)
    pos = perm[:k_pos]
    k_neg = int(rng.integers(0, max(1, n // 3)))
    neg = perm[k_pos : k_pos + k_neg]
    e0[pos] = (1.0, 0.0)
    e0[neg] = (0.0, 1.0)
    return e0, pos, neg


def fd_lpl_gradient(g, mask, e0, cfg, positives, negatives, step=1e-5):
    """Central-difference oracle for the mask gradient."""
    out = np.zeros(g.m)
    for e in range(g.m):
        for sgn in (1.0, -1.0):
            th = mask.theta.copy()
            th[e] += sgn * step
            op = propagation_operator(g, EdgeMask(th))
            val = lpl_loss(propagate(op, e0, cfg), positives, negatives)
            out[e] += sgn * val
    return out / (2 * step)


def _rel_err(analytic, numeric, floor=1e-8):
    keep = np.abs(analytic) > floor
    if not keep.any():
        return 0.0
    a, b = analytic[keep], numeric[keep]
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))))


def check_lpl_gradient_suite(trials: int = 20, seed: int = 1) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        g = random_test_graph(rng, n, rng.uniform(0.3, 0.7))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(alpha=float(rng.uniform(0.2, 0.8)), k_prop=int(rng.integers(1, 5)))
        e0, pos, neg = _random_anchor_beliefs(rng, g)
        grad = lpl_gradient(g, mask, e0, cfg, pos, neg)
        fd = fd_lpl_gradient(g, mask, e0, cfg, pos, neg)
        worst = max(worst, _rel_err(grad, fd))
    return CheckResult("lpl_gradient_fd", trials, worst, 1e-4, worst <= 1e-4)


def fd_classifier_gradients(state, op, X, positives, negatives, step=1e-5):
    """Central-difference oracle for every classifier parameter."""
    grads = {}
    for name, p in state.params().items():
        gp = np.zeros_like(p)
        flat = p.ravel()
        gflat = gp.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = pu_loss(forward(state, op, X), positives, negatives)
            flat[k] = orig - step
            lo = pu_loss(forward(state, op, X), positives, negatives)
            flat[k] = orig
            gflat[k] = (hi - lo) / (2 * step)
        grads[name] = gp
    return grads


def check_clf_gradient_suite(trials: int = 20, seed: int = 2) -> CheckResult:
    from .graph import gcn_operator

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
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
        grads, _ = loss_gradients(state, op, X, pos, neg)
        fd = fd_classifier_gradients(state, op, X, pos, neg)
        for name in grads:
            worst = max(worst, _rel_err(grads[name].ravel(), fd[name].ravel()))
    return CheckResult("clf_gradient_fd", trials, worst, 1e-4, worst <= 1e-4)


def check_row_stochastic_suite(trials: int = 100, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 41))
        g = random_test_graph(rng, n, rng.uniform(0.05, 0.5))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(
            alpha=float(rng.uniform(0.05, 0.95)), k_prop=int(rng.integers(0, 9))
        )
        e0 = _random_anchor_beliefs(rng, g)[0]
        out = propagate(propagation_operator(g, mask), e0, cfg)
        worst = max(worst, float(np.max(np.abs(out.sum(axis=1) - 1.0))))
    return CheckResult("belief_row_sums", trials, worst, 1e-10, worst <= 1e-10)


def check_influence_suite(trials: int = 50, seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 21))
        g = random_test_graph(rng, n, rng.uniform(0.15, 0.6))
        mask = random_mask(rng, g)
        cfg = PropagationConfig(
            alpha=float(rng.uniform(0.2, 0.8)), k_prop=int(rng.integers(1, 5))
        )
        a = int(rng.integers(n))
        e0 = np.zeros((n, 2))
        e0[:, 1] = 1.0  # everyone pure negative ...
        e0[a] = (1.0, 0.0)  # ... except the probed source
        residual = check_influence_sum(g, mask, e0, cfg, a)[2]
        worst = max(worst, residual)
    return CheckResult("influence_sum_identity", trials, worst, 1e-6, worst <= 1e-6)


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


def check_contraction_suite(trials: int = 100, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    violations = 0
    for _ in range(trials):
        g, mask, x = contraction_instance(rng)
        before, after = check_aggregation_contraction(g, mask, x)
        worst = max(worst, after - before)
        if after > before + 1e-9:
            violations += 1
    return CheckResult(
        "aggregation_contraction", trials, float(worst), 1e-9, violations == 0
    )


def run_validation_suite() -> list[CheckResult]:
    """All pure oracle checks at their contract sizes, fixed seeds."""
    return [
        check_row_stochastic_suite(),
        check_lpl_gradient_suite(),
        check_clf_gradient_suite(),
        check_influence_suite(),
        check_contraction_suite(),
    ]

"""Belief propagation over the masked graph, the anchor-label loss on the
propagated beliefs, and its exact reverse-mode gradient in the mask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import EdgeMask, SparseGraph, _node_ids, _propagation_degrees, propagation_operator

LOG_EPS = 1e-12


class PropagationError(ValueError):
    """Raised for invalid propagation inputs or non-finite losses."""


@dataclass(frozen=True)
class PropagationConfig:
    """alpha: retention coefficient in (0, 1); k_prop: iteration count K >= 0."""

    alpha: float = 0.5
    k_prop: int = 10

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise PropagationError("alpha must lie strictly in (0, 1)")
        if self.k_prop < 0:
            raise PropagationError("k_prop must be >= 0")


def init_beliefs(split, *, positives=(), negatives=()) -> np.ndarray:
    """Initial n x 2 class beliefs, rows [P(y=+1), P(y=-1)].

    Observed positives and the identified `positives` get [1, 0], the
    identified `negatives` get [0, 1], everything else the uniform row
    [0.5, 0.5]. Identified ids must be unlabeled nodes, each in one set only.
    """
    n = len(split.P) + len(split.U)
    pos, neg = _node_ids(positives), _node_ids(negatives)
    ids = np.concatenate([pos, neg])
    bad = ids[~np.isin(ids, split.U)]
    if bad.size:
        raise PropagationError(f"identified node {bad[0]} is not unlabeled")
    both = np.intersect1d(pos, neg)
    if both.size:
        raise PropagationError(f"node {both[0]} identified as both positive and negative")
    e0 = np.full((n, 2), 0.5, dtype=np.float64)
    e0[np.concatenate([split.P, pos])] = (1.0, 0.0)
    e0[neg] = (0.0, 1.0)
    return e0


def propagate(op: sp.csr_matrix, e0: np.ndarray, cfg: PropagationConfig) -> np.ndarray:
    """K applications of E <- alpha*E + (1-alpha) * op @ E.

    The map is a convex combination of row-stochastic maps, so row sums are
    preserved exactly and rows stay in the simplex.
    """
    if op.shape[0] != e0.shape[0]:
        raise PropagationError("operator and belief dimensions disagree")
    E = np.array(e0, dtype=np.float64, copy=True)
    for _ in range(cfg.k_prop):
        E = cfg.alpha * E + (1.0 - cfg.alpha) * (op @ E)
    return E


def _check_anchor_sets(positives, negatives):
    pos = _node_ids(positives)
    neg = _node_ids(negatives) if negatives is not None else np.empty(0, np.int64)
    if pos.size == 0:
        raise PropagationError("anchor positive set is empty")
    if np.isin(pos, neg).any():
        raise PropagationError("anchor positive and negative sets overlap")
    return pos, neg


def lpl_loss(beliefs, positives, negatives=()) -> float:
    """Mean log-probability of the wrong class at the anchor nodes.

    L = mean_{i in P'} log(P(y_i=-1) + eps) + mean_{i in N'} log(P(y_i=+1) + eps).
    Minimizing L drives anchor beliefs toward their known signs. The negative
    term is dropped when no negatives are identified.
    """
    pos, neg = _check_anchor_sets(positives, negatives)
    loss = float(np.mean(np.log(beliefs[pos, 1] + LOG_EPS)))
    if neg.size:
        loss += float(np.mean(np.log(beliefs[neg, 0] + LOG_EPS)))
    return loss


def lpl_gradient(
    g: SparseGraph,
    mask: EdgeMask,
    e0: np.ndarray,
    cfg: PropagationConfig,
    positives,
    negatives=(),
) -> np.ndarray:
    """d(lpl_loss)/d(theta_e), exact through the K-step unroll.

    The row normalization P = D^-1 (M*A) depends on the mask, so the
    gradient has two parts per directed edge (u, v) with weight w and
    masked degree d_u:

        dL/dw = (Gamma_uv - r_u) / d_u,  summed over both directions,

    where Gamma_uv = (1-alpha) * sum_k <G_k[u], E_{k-1}[v]> accumulates the
    adjoint/state products across steps and r_u = sum_j Gamma_uj P_uj.
    The adjoint recursion itself is G_{k-1} = alpha*G_k + (1-alpha) P^T G_k.
    A log clamped at its floor (belief <= eps) contributes zero slope.
    """
    pos, neg = _check_anchor_sets(positives, negatives)
    K = cfg.k_prop
    if g.m == 0 or K == 0:
        return np.zeros(g.m)

    w = mask.weights()
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    wdir = np.concatenate([w, w])

    op = propagation_operator(g, mask)
    d = _propagation_degrees(g, w)
    states = [np.array(e0, dtype=np.float64, copy=True)]
    for _ in range(K):
        states.append(cfg.alpha * states[-1] + (1.0 - cfg.alpha) * (op @ states[-1]))

    G = np.zeros_like(states[-1])
    bp = states[-1][pos, 1]
    live = bp > LOG_EPS
    G[pos[live], 1] = 1.0 / (len(pos) * (bp[live] + LOG_EPS))
    if neg.size:
        bn = states[-1][neg, 0]
        live = bn > LOG_EPS
        G[neg[live], 0] = 1.0 / (len(neg) * (bn[live] + LOG_EPS))

    opT = op.T  # CSC view, no copy; its products match a CSR transpose bit for bit
    gamma = np.zeros(2 * g.m)
    for k in range(K, 0, -1):
        E = states[k - 1]
        gamma += (1.0 - cfg.alpha) * (
            G[:, 0][rows] * E[:, 0][cols] + G[:, 1][rows] * E[:, 1][cols]
        )
        if k > 1:
            G = cfg.alpha * G + (1.0 - cfg.alpha) * (opT @ G)

    pdir = wdir / d[rows]
    r = np.zeros(g.n)
    np.add.at(r, rows, gamma * pdir)
    grad_dir = (gamma - r[rows]) / d[rows]
    grad_w = grad_dir[: g.m] + grad_dir[g.m :]
    return grad_w * w * (1.0 - w)


def optimize_mask(
    g: SparseGraph,
    mask: EdgeMask,
    e0: np.ndarray,
    cfg: PropagationConfig,
    positives,
    negatives=(),
    steps: int = 50,
    lr: float = 0.1,
) -> EdgeMask:
    """Descent on the mask parameters with a backtracking line search.

    The step direction is sign(grad), steepest descent under the max norm,
    so lr is the per-parameter move in raw (logit) units. Raw gradient
    entries scale like 1/(anchors * degree) under the group-averaged loss,
    which would leave any fixed rate on the raw gradient either inert or
    unstable across graph sizes. Each step halves the rate until the loss
    does not increase, so the loss is non-increasing over accepted steps.
    Stops early once the relative loss change drops below 1e-5. Returns a
    new mask; the input is untouched.
    """
    if steps < 1:
        raise PropagationError("steps must be >= 1")
    if lr < 0:
        raise PropagationError("lr must be >= 0")
    positives, negatives = _check_anchor_sets(positives, negatives)
    theta = mask.theta.copy()

    def loss_at(th):
        op = propagation_operator(g, EdgeMask(th))
        return lpl_loss(propagate(op, e0, cfg), positives, negatives)

    prev = loss_at(theta)
    if not np.isfinite(prev):
        raise PropagationError("non-finite loss at initialization")
    for _ in range(steps):
        grad = lpl_gradient(g, EdgeMask(theta), e0, cfg, positives, negatives)
        if not np.any(grad):
            break
        direction = np.sign(grad)
        step_lr = lr
        trial, cur = theta, prev
        for _ in range(40):
            cand = theta - step_lr * direction
            cand_loss = loss_at(cand)
            if np.isfinite(cand_loss) and cand_loss <= prev:
                trial, cur = cand, cand_loss
                break
            step_lr *= 0.5
        theta = trial
        done = abs(cur - prev) < 1e-5 * max(1.0, abs(prev))
        prev = cur
        if done:
            break
    return EdgeMask(theta)

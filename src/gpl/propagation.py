"""Belief propagation over the masked graph, the anchor-label loss on the
propagated beliefs, and its exact reverse-mode gradient in the mask."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import EdgeMask, SparseGraph, _integer, _node_ids, _propagation, propagation_operator

LOG_EPS = 1e-12


class PropagationError(ValueError):
    """Raised for invalid propagation inputs or non-finite losses."""


@dataclass(frozen=True)
class PropagationConfig:
    """alpha: retention coefficient in (0, 1); k_prop: iteration count K >= 0."""

    alpha: float
    k_prop: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise PropagationError("alpha must lie strictly in (0, 1)")
        _integer(self.k_prop, "k_prop", 0, PropagationError)


def _anchor_beliefs(n: int, positives, negatives) -> np.ndarray:
    """n x 2 beliefs: [1, 0] at the positive ids, then [0, 1] at the negative
    ids, the uniform row [0.5, 0.5] everywhere else."""
    e0 = np.full((n, 2), 0.5)
    e0[positives] = (1.0, 0.0)
    e0[negatives] = (0.0, 1.0)
    return e0


def propagate(op: sp.csr_matrix, e0: np.ndarray, cfg: PropagationConfig) -> list[np.ndarray]:
    """K applications of E <- alpha*E + (1-alpha) * op @ E; returns the K+1
    beliefs [E_0, ..., E_K] that lpl_gradient takes (E_0 a float64 copy of
    e0, the final beliefs [-1]). Each step is a convex combination of
    row-stochastic maps, so row sums are preserved exactly and rows stay in
    the simplex."""
    if op.shape[0] != e0.shape[0]:
        raise PropagationError("operator and belief dimensions disagree")
    states = [np.array(e0, dtype=np.float64, copy=True)]
    for _ in range(cfg.k_prop):
        e = op @ states[-1]
        e *= 1.0 - cfg.alpha
        e += cfg.alpha * states[-1]  # the same bits as alpha*E + (1-alpha) * (op @ E)
        states.append(e)
    return states


def _check_anchor_sets(n: int, positives, negatives):
    pos, neg = _node_ids(n, positives, negatives, error=PropagationError, what="anchor", disjoint=True)
    if pos.size == 0:
        raise PropagationError("anchor positive set is empty")
    return pos, neg


def lpl_loss(beliefs, positives, negatives) -> float:
    """Mean log-probability of the wrong class at the anchor nodes.

    L = mean_{i in P'} log(P(y_i=-1) + eps) + mean_{i in N'} log(P(y_i=+1) + eps).
    Minimizing L drives anchor beliefs toward their known signs. The negative
    term is dropped when no negatives are identified.
    """
    if beliefs.ndim != 2 or beliefs.shape[1] != 2:
        raise PropagationError(f"beliefs must be n x 2, got shape {beliefs.shape}")
    return _lpl(beliefs, *_check_anchor_sets(beliefs.shape[0], positives, negatives))


def _lpl(beliefs, pos: np.ndarray, neg: np.ndarray) -> float:
    """lpl_loss on anchor sets already read by _check_anchor_sets; each mean
    is the sum over the count, the bits of np.mean without its overhead."""
    loss = float(np.log(beliefs[pos, 1] + LOG_EPS).sum() / pos.size)
    if neg.size:
        loss += float(np.log(beliefs[neg, 0] + LOG_EPS).sum() / neg.size)
    return loss


def lpl_gradient(g: SparseGraph, mask: EdgeMask, states, cfg: PropagationConfig, positives,
                 negatives) -> np.ndarray:
    """d(lpl_loss)/d(theta_e), exact through the K-step unroll whose K+1
    beliefs E_0..E_K propagate returned for this mask.

    The row normalization P = D^-1 (M*A) depends on the mask, so the
    gradient has two parts per directed edge (u, v) with weight w and
    masked degree d_u:

        dL/dw = (Gamma_uv - r_u) / d_u,  summed over both directions,

    where r_u = sum_j Gamma_uj P_uj. With the two-column adjoints G_k of
    the n x 2 beliefs E_k, Gamma_uv = (1-alpha) * sum_k <G_k[u], E_{k-1}[v]>
    and G_{k-1} = alpha*G_k + (1-alpha) P^T G_k.

    Two-class identity: each belief row sums to 1 (P is row-stochastic, so
    propagate conserves row sums; metrics.check_row_stochastic_suite guards
    this), hence E[:, 1] = 1 - E[:, 0] and

        <G_k[u], E_{k-1}[v]> = delta_k[u] * E_{k-1}[v, 0] + G_k[u, 1],

    with delta = G[:, 0] - G[:, 1]. The last term does not depend on v, and
    every row of P sums to 1, so it cancels in Gamma_uv - r_u. The adjoint
    therefore runs on the one n-vector delta, with the same recursion. The
    result equals the two-column formula up to rounding, and requires the
    rows of E_0 = states[0] to sum to 1 within 1e-12.

    An anchor whose wrong-class belief b is at or below eps contributes zero
    slope: there this is the gradient of log(max(b, eps)), not of lpl_loss's
    log(b + eps), which still slopes below the floor. With K = 0 or no edges
    the unroll adds nothing and the result is all zeros.
    """
    pos, neg = _check_anchor_sets(g.n, positives, negatives)
    K = cfg.k_prop
    if len(states) != K + 1:
        raise PropagationError(f"expected {K + 1} belief states, got {len(states)}")
    for s in states:
        if s.shape != (g.n, 2):
            raise PropagationError(f"belief states must be {g.n} x 2 on a graph of {g.n} nodes, got shape {s.shape}")
    sums = states[0][:, 0] + states[0][:, 1]
    ok = np.abs(sums - 1.0) <= 1e-12  # False for NaN, where a > test would pass it
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        raise PropagationError(f"belief row {bad} sums to {float(sums[bad])}, not 1")

    i, j = g.edges[:, 0], g.edges[:, 1]
    op = propagation_operator(g, mask)
    _, w, d = _propagation(g, mask)  # held on the mask by the build above

    delta = np.zeros(g.n)
    bp = states[-1][pos, 1]
    live = bp > LOG_EPS
    delta[pos[live]] = -1.0 / (len(pos) * (bp[live] + LOG_EPS))
    if neg.size:
        bn = states[-1][neg, 0]
        live = bn > LOG_EPS
        delta[neg[live]] = 1.0 / (len(neg) * (bn[live] + LOG_EPS))

    opT = op.T  # CSC view, no copy; its products match a CSR transpose bit for bit
    gamma_ij, gamma_ji = np.zeros(g.m), np.zeros(g.m)
    for k in range(K, 0, -1):
        e = states[k - 1][:, 0]
        gamma_ij += delta[i] * e[j]
        gamma_ji += delta[j] * e[i]
        if k > 1:
            back = opT @ delta
            back *= 1.0 - cfg.alpha
            delta *= cfg.alpha
            delta += back  # the same bits as alpha*delta + (1-alpha) * (opT @ delta)
    gamma_ij *= 1.0 - cfg.alpha
    gamma_ji *= 1.0 - cfg.alpha

    r = (np.bincount(i, weights=gamma_ij * w, minlength=g.n)
         + np.bincount(j, weights=gamma_ji * w, minlength=g.n)) / d
    grad_w = (gamma_ij - r[i]) / d[i] + (gamma_ji - r[j]) / d[j]
    return grad_w * w * (1.0 - w)


def _lpl_at(g: SparseGraph, mask: EdgeMask, e0, cfg: PropagationConfig, pos: np.ndarray, neg: np.ndarray):
    """(lpl_loss, beliefs E_0..E_K) at the mask, propagated from e0: the inner
    objective optimize_mask descends and metrics.fd_lpl_gradient differentiates.
    pos and neg are the anchor sets as _check_anchor_sets returned them, read
    once by the caller, not once per evaluation. The mask keeps the
    operator, for lpl_gradient at the same point."""
    states = propagate(propagation_operator(g, mask), e0, cfg)
    return _lpl(states[-1], pos, neg), states


def optimize_mask(
    g: SparseGraph,
    mask: EdgeMask,
    cfg: PropagationConfig,
    positives,
    negatives,
    *,
    steps: int,
    lr: float,
) -> EdgeMask:
    """Descent on the mask parameters with a backtracking line search, on
    the loss _lpl_at gives from E_0 = _anchor_beliefs(n, positives,
    negatives), so the anchor sets alone define it; lpl_gradient reads the
    belief states _lpl_at returned for the accepted point, and the operator
    the accepted mask holds.

    The step direction is sign(grad), steepest descent under the max norm,
    so lr is the per-parameter move in raw (logit) units. Raw gradient
    entries scale like 1/(anchors * degree) under the group-averaged loss,
    which would leave any fixed rate on the raw gradient either inert or
    unstable across graph sizes. Each step halves the rate until the loss
    does not increase, so the loss is non-increasing over accepted steps.
    Stops early once the relative loss change drops below 1e-5. Returns a
    new mask, holding its operator; the input is untouched.
    """
    steps = _integer(steps, "steps", 1, PropagationError)
    if not lr >= 0:  # NaN too
        raise PropagationError("lr must be >= 0")
    positives, negatives = _check_anchor_sets(g.n, positives, negatives)
    e0 = _anchor_beliefs(g.n, positives, negatives)
    mask = EdgeMask(mask.theta.copy())
    # Only the accepted point's states and the current candidate's stay alive.
    prev, states = _lpl_at(g, mask, e0, cfg, positives, negatives)
    if not np.isfinite(prev):
        raise PropagationError("non-finite loss at initialization")
    for _ in range(steps):
        grad = lpl_gradient(g, mask, states, cfg, positives, negatives)
        if not np.any(grad):
            break
        direction = np.sign(grad)
        step_lr = lr
        cur = prev
        for _ in range(40):
            cand = EdgeMask(mask.theta - step_lr * direction)
            cand_loss, trial = _lpl_at(g, cand, e0, cfg, positives, negatives)
            if np.isfinite(cand_loss) and cand_loss <= prev:
                mask, cur, states = cand, cand_loss, trial
                break
            step_lr *= 0.5
        done = abs(cur - prev) < 1e-5 * max(1.0, abs(prev))
        prev = cur
        if done:
            break
    return mask

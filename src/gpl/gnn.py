"""Two-layer graph-convolution binary classifier with manual backprop and Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graph import GraphError, _array, _integer, _node_ids, _real

LOG_EPS = 1e-12
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8
# bytes of one row block of the hidden layer: 2048 rows at hidden 16
BLOCK_BYTES = 256 * 1024
# rows of a block come in whole groups of BLOCK_ALIGN: BLAS takes the rows
# of a product in groups (16 in OpenBLAS's Haswell kernels), and a block
# starting mid-group would move the scores' last bits
BLOCK_ALIGN = 64


class ClassifierError(GraphError):
    """Raised for invalid classifier inputs or non-finite losses; node ids are graph inputs."""


class ClassifierState:
    """Parameters, Adam moments and step counter of the 2-layer model: theta,
    adam_m and adam_v are vectors laid out as [W1 | b1 | W2 | b2], and W1b1 =
    [W1; b1], W1, b1, W2 and b2 are views of theta."""

    def __init__(self, d_in: int, hidden: int):
        k = (d_in + 1) * hidden
        self.theta, self.adam_m, self.adam_v = np.zeros((3, k + hidden + 1))
        self.t = 0
        self.W1b1 = self.theta[:k].reshape(d_in + 1, hidden)
        self.W1, self.b1 = self.W1b1[:-1], self.W1b1[-1]
        self.W2, self.b2 = self.theta[k:-1].reshape(hidden, 1), self.theta[-1:]

    def params(self) -> dict:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def init_classifier(d_in: int, hidden: int, seed: int) -> ClassifierState:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded. W1 and b1
    share a scale, and so do W2 and b2, so one draw fills each pair."""
    d_in = _integer(d_in, "d_in", 1, ClassifierError)
    hidden = _integer(hidden, "hidden", 1, ClassifierError)
    rng = np.random.default_rng(_integer(seed, "seed", 0, ClassifierError))
    s1 = 1.0 / np.sqrt(d_in)
    s2 = 1.0 / np.sqrt(hidden)
    state = ClassifierState(d_in, hidden)
    state.W1b1[:] = rng.uniform(-s1, s1, size=state.W1b1.shape)
    state.theta[state.W1b1.size:] = rng.uniform(-s2, s2, size=hidden + 1)
    return state


class Workspace:
    """Everything a classifier step reads besides the parameters, for one
    operator `op`, feature matrix `X`, hidden size and the fit's id sets,
    built once per fit. op must be symmetric, as gcn_operator builds it
    bit for bit: a step takes the outer adjoint op.T @ v as op @ v, so an op
    for which the two differ on a fixed random v is rejected. Held:
    pos and neg, the positive and provisional-negative ids as int64
    arrays, read once here with graph._node_ids, no id in both or twice in
    one; xs1T = [op @ X | 1].T, the first aggregation with a ones row, held
    contiguous as (D+1) x n (scores multiplies its .T view by [W1; b1], so
    the bias comes with the product); and one n x hidden scratch array h1,
    which every call writes before it reads. A step walks h1 in `blocks`,
    row slices of about BLOCK_BYTES each, a whole number of BLOCK_ALIGN
    rows (the last may be shorter), so each of its passes over the hidden
    layer can stay in a per-core L2 cache.

    Sharing a workspace leaves every result bit for bit the same. Against
    the textbook step (xs @ W1 + b1, a column sum for the b1 gradient), and
    whatever the block size, so do the scores, the loss and the W2 and b2
    gradients; the W1 and b1 gradients, with W2 out of their n-long sums
    and those sums taken per block, can move in the last bits.
    """

    def __init__(self, op, X, hidden: int, positives=(), negatives=()):
        X = _array(X, "feature matrix X", ("n", "D"), ClassifierError)
        n = X.shape[0]
        if op.shape != (n, n):
            raise ClassifierError(f"operator is {op.shape[0]} x {op.shape[1]} but X has {n} rows")
        v = np.random.default_rng(0).random(n)
        if not np.array_equal(op @ v, op.T @ v):
            raise ClassifierError("operator must be symmetric, as gcn_operator's is: a step takes op.T @ v as op @ v")
        hidden = _integer(hidden, "hidden", 1, ClassifierError)
        self.pos, self.neg = _node_ids(n, positives, negatives, error=ClassifierError, disjoint=True)
        self.op, self.X = op, X
        self.xs1T = np.vstack([(op @ X).T, np.ones(n)])
        self.h1 = np.empty((n, hidden))
        rows = max(1, BLOCK_BYTES // (8 * BLOCK_ALIGN * hidden)) * BLOCK_ALIGN
        self.blocks = [slice(i, i + rows) for i in range(0, n, rows)]


def scores(state: ClassifierState, work: Workspace) -> np.ndarray:
    """Per-node positive posterior z = sigmoid(S relu(S X W1 + b1) W2 + b2)
    on work's operator S and features X. The state's feature width and
    hidden size must match the workspace's."""
    d_in, hidden = state.W1.shape
    if work.X.shape[1] != d_in:
        raise ClassifierError(f"W1 has {d_in} rows but X has {work.X.shape[1]} feature columns")
    if work.h1.shape[1] != hidden:
        raise ClassifierError(f"W1 has {hidden} columns but the workspace holds {work.h1.shape[1]} hidden units")
    u = np.empty((work.h1.shape[0], 1))
    for b in work.blocks:
        h = work.h1[b]
        np.matmul(work.xs1T[:, b].T, state.W1b1, out=h)
        np.maximum(h, 0.0, out=h)
        np.matmul(h, state.W2, out=u[b])
    return expit((work.op @ u).ravel() + state.b2[0])


def forward(state: ClassifierState, op, X) -> np.ndarray:
    """scores(state, work) on a Workspace of (op, X) built for this one
    call; a fit that scores more than once holds its own workspace."""
    return scores(state, Workspace(op, X, state.W1.shape[1]))


def _pu_loss(z: np.ndarray, pos: np.ndarray, neg: np.ndarray):
    """pu_loss on ids already read. Returns (loss, z[pos] + eps,
    1 - z[neg] + eps), the two groups' log arguments, which
    loss_gradients reuses for dz."""
    if pos.size == 0 and neg.size == 0:
        raise ClassifierError("both groups empty")
    zp, zn = z[pos] + LOG_EPS, 1.0 - z[neg] + LOG_EPS
    loss = 0.0
    if pos.size:
        loss -= float(np.log(zp).sum() / pos.size)
    if neg.size:
        loss -= float(np.log(zn).sum() / neg.size)
    return loss, zp, zn


def pu_loss(z: np.ndarray, positives, negatives) -> float:
    """Group-averaged clamped cross-entropy.

    Mean of -log(z + eps) over the positive group plus mean of
    -log(1 - z + eps) over the provisional-negative group; an empty group's
    term is dropped, both empty is an error. No id may be in both groups or
    twice in one.
    """
    pos, neg = _node_ids(z.shape[0], positives, negatives, error=ClassifierError, disjoint=True)
    return _pu_loss(z, pos, neg)[0]


def loss_gradients(state: ClassifierState, work: Workspace):
    """Exact gradient of pu_loss on scores(state, work) over work's id sets
    in every parameter.
    Returns (grad, loss), with grad laid out like state.theta.

    W2 comes out of the first layer's n-long sums: with dq the outer adjoint
    and M = 1[h1 > 0], grad[W1; b1] = (xs1T @ (M * dq)) * W2.T. The W2
    gradient h1.T @ dq is taken first; then each block of h1 is overwritten
    by M * dq and its xs1T columns' product added to the sum: n x hidden
    work per step whatever the feature width. Each part is written into its
    view of the one theta-shaped gradient vector.

    The operator is treated as a constant: no gradient flows to the edge
    mask from the classification loss.
    """
    pos, neg = work.pos, work.neg
    z = scores(state, work)
    loss, zp, zn = _pu_loss(z, pos, neg)
    if not math.isfinite(loss):
        raise ClassifierError("non-finite classification loss")

    # dz, written by assignment: the id sets are disjoint and dz is zero on
    # them; then dz * z * (1 - z) in place
    dpre2 = np.zeros_like(z)
    if pos.size:
        dpre2[pos] = -1.0 / (pos.size * zp)
    if neg.size:
        dpre2[neg] = 1.0 / (neg.size * zn)
    dpre2 *= z
    dpre2 *= np.subtract(1.0, z, out=z)

    dq = work.op @ dpre2  # adjoint of the outer aggregation: op is symmetric
    grad = np.zeros_like(state.theta)
    k = state.W1b1.size
    g1, g2 = grad[:k].reshape(state.W1b1.shape), grad[k:-1].reshape(state.W2.shape)
    np.matmul(work.h1.T, dq[:, None], out=g2)  # before the blocks overwrite h1
    for b in work.blocks:
        m = work.h1[b]
        np.greater(m, 0.0, out=m)  # M as 0/1
        m *= dq[b, None]
        g1 += work.xs1T[:, b] @ m
    g1 *= state.W2.T
    grad[-1] = dpre2.sum()
    return grad, loss


def backward_and_step(state: ClassifierState, work: Workspace, lr: float):
    """One exact-gradient Adam step on pu_loss over work's operator,
    features and id sets. Returns (state, loss), the loss taken before the
    step.

    The moments and theta are updated in place, each product in the
    textbook operand order, so the bits are those of the textbook update.
    lr=0 leaves the parameters unchanged.
    """
    if not 0 <= _real(lr, "lr", ClassifierError) < np.inf:  # NaN too
        raise ClassifierError("lr must be finite and >= 0")
    grad, loss = loss_gradients(state, work)
    state.t += 1
    m, v = state.adam_m, state.adam_v
    tmp = np.multiply(1 - ADAM_B2, grad)
    tmp *= grad
    v *= ADAM_B2
    v += tmp  # B2 * v + (1 - B2) * grad * grad
    grad *= 1 - ADAM_B1
    m *= ADAM_B1
    m += grad  # B1 * m + (1 - B1) * grad
    step = np.divide(m, 1 - ADAM_B1**state.t, out=grad)  # mhat
    step *= lr
    vhat = np.divide(v, 1 - ADAM_B2**state.t, out=tmp)
    np.sqrt(vhat, out=vhat)
    vhat += ADAM_EPS
    step /= vhat  # lr * mhat / (sqrt(vhat) + eps)
    state.theta -= step
    return state, loss


@dataclass(frozen=True)
class SelectionResult:
    s_set: np.ndarray      # provisional positives, ascending node ids
    complement: np.ndarray  # the rest of U, ascending node ids


def select_top(u_nodes, z, pi_hat: float) -> SelectionResult:
    """Top round(pi_hat * |U|) unlabeled nodes by score, where z is a
    vector of one score per graph node, so U's ids must lie in [0, len(z)),
    and every score over U must be finite: NaN has no rank.

    Rounding is half-up; score ties break toward the lower node index.
    A node id given twice is an error: it would land in both sets.
    """
    if not 0.0 <= _real(pi_hat, "pi_hat", ClassifierError) <= 1.0:
        raise ClassifierError("pi_hat must lie in [0, 1]")
    z = _array(z, "scores", ("n",), ClassifierError)
    (u,) = _node_ids(len(z), u_nodes, error=ClassifierError, disjoint=True)
    zu = z[u]
    bad = np.flatnonzero(~np.isfinite(zu))
    if bad.size:
        raise ClassifierError(f"score of node {u[bad[0]]} is {zu[bad[0]]}, not finite")
    k = int(np.floor(pi_hat * u.size + 0.5))
    order = np.lexsort((u, -zu))
    return SelectionResult(s_set=np.sort(u[order[:k]]), complement=np.sort(u[order[k:]]))


def predict_labels(z: np.ndarray) -> np.ndarray:
    """Binarize scores: +1 where z >= 0.5, else -1."""
    return np.where(z >= 0.5, 1, -1).astype(np.int64)


CHECKPOINT_MAGIC = "gpl-checkpoint v2"


def save_checkpoint(state: ClassifierState, path) -> None:
    """Versioned text dump of the parameters W1, b1, W2 and b2.

    Each block is a `<name> <rows> <cols>` line followed by its rows, with
    17 significant digits, which round-trips float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(CHECKPOINT_MAGIC + "\n")
        for name, arr in state.params().items():
            a = np.atleast_2d(arr)
            f.write(f"{name} {a.shape[0]} {a.shape[1]}\n")
            for row in a:
                f.write(" ".join(f"{v:.17g}" for v in row) + "\n")

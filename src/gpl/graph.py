"""Sparse undirected graphs, learnable edge masks, and normalized operators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logit


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


@dataclass(frozen=True)
class SparseGraph:
    """Immutable undirected graph with node features and binary labels.

    Edges are stored once each in canonical order (i < j, lexicographically
    sorted). Labels are +1/-1 and are meant for evaluation and synthetic-data
    bookkeeping; training code only reads them through metrics.
    """

    n: int
    edges: np.ndarray     # (m, 2) int64, i < j per row
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray    # (n,) int64 in {+1, -1}

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    # Operator layouts, built on first use and kept for the graph's lifetime.
    @cached_property
    def _propagation_layout(self) -> _Layout:
        # An isolated node gets a self-loop slot: its weight 1 is its row sum,
        # so its row comes out as the identity row.
        return _layout(self, np.flatnonzero(self.degrees() == 0))

    @cached_property
    def _gcn_layout(self) -> _Layout:
        return _layout(self, np.arange(self.n))


def build_graph(n, edges, features, labels) -> SparseGraph:
    """Validate and canonicalize raw inputs into a SparseGraph.

    Symmetric duplicates collapse to one stored edge. Self-loops and
    out-of-range endpoints are rejected, naming the offending pair; NaN or
    infinite features are rejected, naming the first offending row.
    """
    if n <= 0:
        raise GraphError("node count must be positive")
    canon = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise GraphError(f"edge ({i}, {j}): self-loop")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}): index out of range for n={n}")
        canon.add((i, j) if i < j else (j, i))
    edge_arr = np.array(sorted(canon), dtype=np.int64).reshape(-1, 2)

    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(
            f"feature matrix has {features.shape[0] if features.ndim == 2 else '?'} rows, expected {n}"
        )
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise GraphError(f"feature row {bad[0]}: non-finite value")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise GraphError(f"label vector has shape {labels.shape}, expected ({n},)")
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise GraphError(f"label row {bad[0]}: value {labels[bad[0]]} not in {{+1, -1}}")
    return SparseGraph(n=n, edges=edge_arr, features=features, labels=labels)


@dataclass
class EdgeMask:
    """Learnable per-edge weights, one raw parameter per undirected edge.

    weight(e) = sigmoid(theta_e), so weights stay in (0, 1) and the edge
    stays symmetric by construction (a single parameter serves both
    directions). Aligned with SparseGraph.edges row order.
    """

    theta: np.ndarray  # (m,) float64

    def weights(self) -> np.ndarray:
        return expit(self.theta)

    def copy(self) -> "EdgeMask":
        return EdgeMask(self.theta.copy())


def _node_ids(nodes) -> np.ndarray:
    """Node ids as an int64 array; arrays pass through without a copy."""
    if isinstance(nodes, np.ndarray):
        return nodes.astype(np.int64, copy=False)
    return np.asarray(list(nodes), dtype=np.int64)


def init_mask(g: SparseGraph, w0: float = 0.95) -> EdgeMask:
    """Mask starting near the unmasked graph (all weights = w0)."""
    if not 0.0 < w0 < 1.0:
        raise GraphError("initial weight must lie in (0, 1)")
    return EdgeMask(np.full(g.m, logit(w0), dtype=np.float64))


@dataclass(frozen=True)
class _Layout:
    """Fixed CSR sparsity pattern of one operator; a mask update rewrites only
    the values. Slot s holds column indices[s] and takes the weight of edge
    edge[s], where edge id m stands for a self-loop of weight 1. Columns
    ascend within each row."""

    indptr: np.ndarray   # (n+1,) int32; every row has at least one slot
    indices: np.ndarray  # (nnz,) int32
    edge: np.ndarray     # (nnz,) int32

    def slot_weights(self, w: np.ndarray) -> np.ndarray:
        return np.append(w, 1.0)[self.edge]

    def row_sums(self, data: np.ndarray) -> np.ndarray:
        return np.add.reduceat(data, self.indptr[:-1])

    def per_slot(self, row_values: np.ndarray) -> np.ndarray:
        return np.repeat(row_values, np.diff(self.indptr))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        n = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def _edge_weights(g: SparseGraph, mask: EdgeMask | None) -> np.ndarray:
    w = np.ones(g.m) if mask is None else mask.weights()
    if w.shape != (g.m,):
        raise GraphError(f"mask has {w.size} weights, graph has {g.m} edges")
    return w


def _layout(g: SparseGraph, loops: np.ndarray) -> _Layout:
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([i, j, loops])
    cols = np.concatenate([j, i, loops])
    ids = np.arange(g.m)
    edge = np.concatenate([ids, ids, np.full(loops.size, g.m)])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    arrays = [indptr, cols[order].astype(np.int32), edge[order].astype(np.int32)]
    for a in arrays:
        a.flags.writeable = False  # shared by every operator built on it
    return _Layout(*arrays)


def propagation_operator(g: SparseGraph, mask: EdgeMask | None = None) -> sp.csr_matrix:
    """Row-stochastic diffusion operator of the masked graph.

    Entry (i, j) = weight(i, j) / sum_k weight(i, k). Isolated nodes get an
    identity row so they keep their own belief. mask=None means unit weights.
    The sparsity pattern is built once per graph and cached on it; each call
    recomputes the entries from the mask, so the result always reflects the
    mask passed in.
    """
    lay = g._propagation_layout
    w = lay.slot_weights(_edge_weights(g, mask))
    return lay.matrix(lay.per_slot(1.0 / lay.row_sums(w)) * w)


def _propagation_degrees(g: SparseGraph, w: np.ndarray) -> np.ndarray:
    """The row sums propagation_operator divides by, for edge weights w."""
    lay = g._propagation_layout
    return lay.row_sums(lay.slot_weights(w))


def gcn_operator(g: SparseGraph, mask: EdgeMask | None = None) -> sp.csr_matrix:
    """Symmetric normalization of the masked graph plus self-loops.

    S = Dt^(-1/2) (M*A + I) Dt^(-1/2) with Dt the row sums of (M*A + I).
    Isolated nodes reduce to an identity row through their self-loop.
    Its sparsity pattern is cached per graph, as in propagation_operator.
    """
    lay = g._gcn_layout
    w = lay.slot_weights(_edge_weights(g, mask))
    dinv = 1.0 / np.sqrt(lay.row_sums(w))
    return lay.matrix(lay.per_slot(dinv) * w * dinv[lay.indices])


def heterophily_ratio(g: SparseGraph) -> float:
    """Fraction of edges whose endpoints carry different labels."""
    if g.m == 0:
        raise GraphError("no edges")
    li = g.labels[g.edges[:, 0]]
    lj = g.labels[g.edges[:, 1]]
    return float(np.mean(li != lj))


def _pair_from_index(idx, ids: np.ndarray):
    """(ids[i], ids[j]) for the idx-th pair i < j of the upper triangle over
    len(ids) items; idx may be an array. ids ascend, so a pair runs low to
    high."""
    k = len(ids)
    i = ((2 * k - 1 - np.sqrt((2 * k - 1) ** 2 - 8 * idx)) // 2).astype(np.int64)
    j = idx - i * (2 * k - i - 1) // 2 + i + 1
    return ids[i], ids[j]


def rewire_to_heterophily(g: SparseGraph, target_h: float, seed: int) -> SparseGraph:
    """Swap edges until the heterophily ratio is within 0.02 of target_h.

    All moves are drawn at once: a uniformly random subset of the edges of
    the over-represented type is removed, and as many distinct, uniformly
    random absent pairs of the other type are added, so the edge count is
    preserved exactly. Added pairs are drawn in batches; pairs already in
    the graph and repeats are dropped, keeping draw order. This has the
    distribution of moves made one at a time, but not their draws: a seed
    picks other edges than the earlier one-move-at-a-time loop did.
    Deterministic per seed.
    """
    if not 0.0 <= target_h <= 1.0:
        raise GraphError("target heterophily must lie in [0, 1]")
    if g.m == 0:
        raise GraphError("no edges")
    m = g.m
    pos = np.flatnonzero(g.labels == 1)
    neg = np.flatnonzero(g.labels == -1)
    max_cross = len(pos) * len(neg)
    max_within = len(pos) * (len(pos) - 1) // 2 + len(neg) * (len(neg) - 1) // 2
    lo_cross = max(0, m - max_within)
    hi_cross = min(m, max_cross)
    target_cross = int(round(target_h * m))
    target_cross = min(max(target_cross, lo_cross), hi_cross)
    if abs(target_cross / m - target_h) > 0.02:
        raise GraphError(
            f"target heterophily {target_h:.3f} unreachable with {m} edges: "
            f"achievable range [{lo_cross / m:.3f}, {hi_cross / m:.3f}] "
            f"at granularity {1.0 / m:.3f}"
        )

    i, j = g.edges[:, 0], g.edges[:, 1]
    is_cross = g.labels[i] != g.labels[j]
    moves = target_cross - int(is_cross.sum())  # > 0: within edges become cross
    if moves == 0:
        return g
    k = abs(moves)

    rng = np.random.default_rng(seed)
    n = g.n
    keys = i * n + j
    removed = rng.choice(np.flatnonzero(is_cross == (moves < 0)), k, replace=False)
    n_pp = len(pos) * (len(pos) - 1) // 2

    def draw(size):
        """Keys i*n+j (i < j) of `size` uniform pairs of the type being added."""
        if moves > 0:
            a = pos[rng.integers(len(pos), size=size)]
            b = neg[rng.integers(len(neg), size=size)]
            return np.minimum(a, b) * n + np.maximum(a, b)
        idx = rng.integers(max_within, size=size)
        a, b = np.empty(size, np.int64), np.empty(size, np.int64)
        pp = idx < n_pp
        a[pp], b[pp] = _pair_from_index(idx[pp], pos)
        a[~pp], b[~pp] = _pair_from_index(idx[~pp] - n_pp, neg)
        return a * n + b

    added, first = np.empty(0, np.int64), np.empty(0, np.int64)
    while first.size < k:
        batch = draw(2 * k)
        added = np.concatenate([added, batch[~np.isin(batch, keys)]])
        first = np.sort(np.unique(added, return_index=True)[1])
    new_keys = np.sort(np.concatenate([np.delete(keys, removed), added[first[:k]]]))
    edges = np.column_stack([new_keys // n, new_keys % n])
    return SparseGraph(n=n, edges=edges, features=g.features, labels=g.labels)

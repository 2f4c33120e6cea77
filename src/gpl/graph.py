"""Sparse undirected graphs, learnable edge masks, and normalized operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logit


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


def _integer(value, name: str, least: int, error) -> int:
    """value as an int >= least; a boolean or non-integer value is rejected
    with `error`, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}")
    return int(value)


def _real(value, name: str, error) -> float:
    """value as a float; a boolean, string, None or other non-number, or an
    int past float64's range, is rejected with `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must be a real number, got an integer past float64's range") from None


_FLOAT64 = np.dtype(np.float64)  # _array's pass path: a float64 array skips the dtype-kind test


def _array(x, what: str, shape: tuple, error) -> np.ndarray:
    """x as a float64 array of `shape` (a float64 array is not copied): an
    int entry is a fixed length, a name any length. Another shape, or a
    ragged or non-numeric input, raises `error`, naming `what` and both shapes.
    Text is non-numeric, "0.9" too, and so are complex, datetime64 and
    timedelta64 arrays and an object array, which is how numpy reads a list
    that mixes text or ints past int64 with numbers. Booleans read as 0/1."""
    try:
        if not isinstance(x, np.ndarray):
            x = np.asarray(x)  # a list is parsed here only, and its dtype kind kept
        if x.dtype is not _FLOAT64 and x.dtype.kind in "OSUcMm":  # the cast would parse "0.9", drop 1j
            raise TypeError
        a = np.asarray(x, dtype=np.float64)
        if a.shape == shape or a.ndim == len(shape) and all(k == s or type(s) is str for k, s in zip(a.shape, shape)):
            return a
        got = f"shape {a.shape}"
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float64's range
        got = "a ragged or non-numeric input"
    want = (" x ".join(map(str, shape)) if len(shape) > 1 else "a 1-d vector" if isinstance(shape[0], str)
            else f"a 1-d vector of length {shape[0]}")
    raise error(f"{what} must be {want}, got {got}")


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

    @cached_property
    def cross(self) -> np.ndarray:
        """(m,) bool, read-only: True where an edge joins the two classes."""
        out = self.labels[self.edges[:, 0]] != self.labels[self.edges[:, 1]]
        out.flags.writeable = False
        return out


def build_graph(n, edges, features, labels) -> SparseGraph:
    """Validate and canonicalize raw inputs into a SparseGraph.

    `edges` is an (m, 2) integer array or any iterable of integer pairs;
    boolean, float, string and object ids are rejected, not cast, and an
    empty input is no edges whatever its dtype. Symmetric duplicates
    collapse to one stored edge. Self-loops and out-of-range endpoints are
    rejected, naming the first offending pair in input order (a self-loop
    before a range error). Features are read as an n x D float64 array
    (graph._array); NaN or infinite ones are rejected, naming the first
    offending row. Labels must be integers +1/-1: a boolean, float, string
    or object label array is rejected, not cast.
    """
    # as an int: a numpy uint64 count would turn the int64 keys into floats
    n = _integer(n, "node count", 1, GraphError)
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"edges must be (i, j) integer pairs: {exc}") from None
    if pairs.size == 0:
        pairs = np.empty((0, 2), np.int64)
    elif pairs.dtype.kind not in "iu":  # Python ints past int64 arrive as float or object
        raise GraphError(f"edges must be (i, j) integer pairs, got dtype {pairs.dtype}")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"edges must be (i, j) integer pairs, got shape {pairs.shape}")
    ij = pairs.astype(np.int64, copy=False)  # uint64 ids past int64 wrap negative: out of range
    lo, hi = np.minimum(ij[:, 0], ij[:, 1]), np.maximum(ij[:, 0], ij[:, 1])
    if lo.size and (lo.min() < 0 or hi.max() >= n or not (lo < hi).all()):  # the mask only on failure
        i, j = pairs[np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))[0]].tolist()
        if i == j:
            raise GraphError(f"edge ({i}, {j}): self-loop")
        raise GraphError(f"edge ({i}, {j}): index out of range for n={n}")
    # keys lo * n + hi written over lo, sorted in place and rid of repeats
    # (np.unique hashes integer keys before sorting them)
    keys = np.add(np.multiply(lo, n, out=lo), hi, out=lo)
    keys.sort()
    if not (new := keys[1:] != keys[:-1]).all():
        keys = keys[np.concatenate(([True], new))]
    edge_arr = np.empty((keys.size, 2), np.int64)
    np.divmod(keys, n, out=(edge_arr[:, 0], edge_arr[:, 1]))

    features = _array(features, "features", (n, "D"), GraphError)
    if not np.isfinite(features).all():
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        raise GraphError(f"feature row {bad[0]}: non-finite value")
    try:
        labels = np.asarray(labels)
    except ValueError as exc:  # ragged
        raise GraphError(f"labels must be a vector of +1/-1: {exc}") from None
    if labels.shape != (n,):
        raise GraphError(f"label vector has shape {labels.shape}, expected ({n},)")
    if labels.dtype.kind not in "iu":  # a cast would truncate 1.5 to 1 and read True as 1
        raise GraphError(f"labels must be the integers +1/-1, got dtype {labels.dtype}")
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise GraphError(f"label row {bad[0]}: value {labels[bad[0]]} not in {{+1, -1}}")
    return SparseGraph(n=n, edges=edge_arr, features=features, labels=labels.astype(np.int64, copy=False))


@dataclass
class EdgeMask:
    """Learnable per-edge weights, one raw parameter per undirected edge.

    weight(e) = sigmoid(theta_e), so weights stay in (0, 1) and the edge
    stays symmetric by construction (a single parameter serves both
    directions). Aligned with SparseGraph.edges row order.
    """

    theta: np.ndarray  # (m,) float64
    # (g, theta copy, op, w, d) of the last propagation build; see _propagation.
    _held: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def weights(self) -> np.ndarray:
        return expit(self.theta)


def _node_ids(n, *sets, error=GraphError, what="node", disjoint=False):
    """Each set as a 1-d int64 array of ids in [0, n); int64 arrays pass
    through uncopied. A bare id, a boolean or non-integer set, or a boolean
    among integer ids is rejected, not cast (a mask would read as the ids 0
    and 1); an empty set is empty whatever its dtype. With disjoint, no id
    may appear twice, within or across sets. A fault raises `error`, naming
    the dimensions (or a ragged input), the dtype, the first id out of
    range, or else the smallest repeated id."""
    out = []
    for nodes in sets:
        items = nodes if isinstance(nodes, np.ndarray) or not np.iterable(nodes) else list(nodes)
        try:
            raw = items if isinstance(items, np.ndarray) else np.asarray(items)
        except (TypeError, ValueError):  # ragged
            raise error(f"{what} ids must be a 1-d set, got a ragged input") from None
        if raw.ndim != 1:
            raise error(f"{what} ids must be a 1-d set, got a {raw.ndim}-d input")
        if raw.size and raw.dtype.kind not in "iu":
            raise error(f"{what} ids must be integers (not boolean masks), got dtype {raw.dtype}")
        # numpy reads [True, 2] as int64, so only the items show the boolean
        if items is not raw and any(isinstance(v, (bool, np.bool_)) for v in items):
            raise error(f"{what} ids must be integers (not boolean masks), got a boolean among integers")
        ids = raw.astype(np.int64, copy=False)
        # read as uint64, a negative id is at least 2**63; one pass, where min and max take two
        if ids.size and ids.view(np.uint64).max() >= n:
            v = raw[ids.view(np.uint64) >= n][0]
            raise error(f"{what} id {v} is out of range for {n} nodes")
        out.append(ids)
    if disjoint:
        ids = np.concatenate(out)
        seen = np.zeros(n, dtype=bool)  # n marks cost less than a sort, which then only names the id
        seen[ids] = True
        if np.count_nonzero(seen) == ids.size:
            return out
        ids = np.sort(ids)
        repeats = ids[1:][ids[1:] == ids[:-1]]
        if sum(repeats[0] in a for a in out) > 1:
            raise error(f"{what} sets overlap at node {repeats[0]}")
        raise error(f"{what} id {repeats[0]} appears more than once")
    return out


def init_mask(g: SparseGraph) -> EdgeMask:
    """Mask starting near the unmasked graph (all weights = 0.95)."""
    return EdgeMask(np.full(g.m, logit(0.95), dtype=np.float64))


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
    order = np.argsort(rows * g.n + cols)  # keys are unique: any sort gives lexsort(cols, rows)
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    arrays = [indptr, cols[order].astype(np.int32), edge[order].astype(np.int32)]
    for a in arrays:
        a.flags.writeable = False  # shared by every operator built on it
    return _Layout(*arrays)


def _propagation(g: SparseGraph, mask: EdgeMask | None):
    """(op, w, d): propagation_operator's result, the edge weights and the row
    sums it divides by. A mask holds its last triple and hands it back while
    the graph is the same object and theta has the same values; mask=None
    builds and holds nothing."""
    held = None if mask is None else mask._held
    if held is not None and held[0] is g and np.array_equal(held[1], mask.theta):
        return held[2:]
    lay = g._propagation_layout
    w = _edge_weights(g, mask)
    slot_w = lay.slot_weights(w)
    d = lay.row_sums(slot_w)
    op = lay.matrix(lay.per_slot(1.0 / d) * slot_w)
    if mask is not None:
        for a in (op.data, w, d):
            a.flags.writeable = False  # handed to every caller until theta changes
        mask._held = (g, mask.theta.copy(), op, w, d)
    return op, w, d


def propagation_operator(g: SparseGraph, mask: EdgeMask | None) -> sp.csr_matrix:
    """Row-stochastic diffusion operator of the masked graph.

    Entry (i, j) = weight(i, j) / sum_k weight(i, k). Isolated nodes get an
    identity row so they keep their own belief. mask=None means unit weights.
    The sparsity pattern is built once per graph and cached on it. A mask
    keeps the last operator built from it and returns that same object while
    the graph and theta are unchanged; changing theta, in place or not,
    gives a fresh build.
    """
    return _propagation(g, mask)[0]


def gcn_operator(g: SparseGraph, mask: EdgeMask | None) -> sp.csr_matrix:
    """Symmetric normalization of the masked graph plus self-loops.

    S = Dt^(-1/2) (M*A + I) Dt^(-1/2) with Dt the row sums of (M*A + I).
    Isolated nodes reduce to an identity row through their self-loop.
    Its sparsity pattern is cached per graph, as in propagation_operator.
    Entry (i, j) is rounded as w_ij * (dinv_i * dinv_j), the same for (j, i),
    so S equals S.T bit for bit and serves as its own adjoint.
    """
    lay = g._gcn_layout
    w = lay.slot_weights(_edge_weights(g, mask))
    dinv = 1.0 / np.sqrt(lay.row_sums(w))
    return lay.matrix(w * (lay.per_slot(dinv) * dinv[lay.indices]))


def heterophily_ratio(g: SparseGraph) -> float:
    """Fraction of edges whose endpoints carry different labels."""
    if g.m == 0:
        raise GraphError("no edges")
    return float(np.mean(g.cross))


def _typed_pairs(flat, pos: np.ndarray, neg: np.ndarray, cross: bool):
    """(a, b), a < b, for flat indices into the pairs of one type over the
    ascending class ids pos and neg: the len(pos) * len(neg) cross pairs,
    or else the within pairs, positive ones first. Keeps the order of flat."""
    if cross:
        q, r = np.divmod(flat, len(neg))
        a, b = pos[q], neg[r]
        return np.minimum(a, b), np.maximum(a, b)
    n_pp = len(pos) * (len(pos) - 1) // 2
    nn = flat >= n_pp  # a negative-class pair: index flat - n_pp among them, ids offset by len(pos)
    idx, c = flat - n_pp * nn, np.where(nn, 2 * len(neg) - 1, 2 * len(pos) - 1)  # c = 2k - 1
    # the idx-th pair i < j of the upper triangle over its class's k ids, in one pass for both classes
    i = ((c - np.sqrt(c * c - 8 * idx)) // 2).astype(np.int64)
    j = idx - i * (c - i) // 2 + i + 1
    ids, off = np.concatenate([pos, neg]), len(pos) * nn
    return ids[i + off], ids[j + off]


def _in_sorted(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.isin(x, keys) for ascending, non-empty keys, by binary search. x is
    searched in ascending order, so that consecutive searches land close
    together, and the hits are scattered back to x's order."""
    order = np.argsort(x)
    xs = x[order]
    hit = np.empty(x.shape, dtype=bool)
    hit[order] = keys[np.minimum(np.searchsorted(keys, xs), keys.size - 1)] == xs
    return hit


def rewire_to_heterophily(g: SparseGraph, target_h: float, seed: int) -> SparseGraph:
    """Swap edges until the heterophily ratio is within 0.02 of target_h.

    All moves are drawn at once: a uniformly random subset of the edges of
    the over-represented type is removed, and as many uniformly random
    absent pairs of the other type are added, so the edge count is
    preserved exactly. The added pairs come from one draw without
    replacement of k + have pairs of that type, where k is the number of
    moves and have the number of such edges already present: at least k
    of them are absent, and the first k absent ones in draw order form a
    uniform k-subset of the absent pairs. Deterministic per seed.
    """
    if not 0.0 <= _real(target_h, "target heterophily", GraphError) <= 1.0:
        raise GraphError("target heterophily must lie in [0, 1]")
    if g.m == 0:
        raise GraphError("no edges")
    _integer(seed, "seed", 0, GraphError)
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

    n_cross = int(g.cross.sum())
    moves = target_cross - n_cross  # > 0: within edges become cross
    if moves == 0:
        return g
    k, adding_cross = abs(moves), moves > 0
    have = n_cross if adding_cross else m - n_cross

    rng = np.random.default_rng(seed)
    n = g.n
    keys = g.edges[:, 0] * n + g.edges[:, 1]  # ascending: edges are in canonical order
    removed = rng.choice(np.flatnonzero(g.cross != adding_cross), k, replace=False)
    flat = rng.choice(max_cross if adding_cross else max_within, k + have, replace=False)
    a, b = _typed_pairs(flat, pos, neg, adding_cross)
    drawn = a * n + b
    added = drawn[~_in_sorted(keys, drawn)][:k]
    new_keys = np.sort(np.concatenate([np.delete(keys, removed), added]))
    edges = np.column_stack([new_keys // n, new_keys % n])
    return SparseGraph(n=n, edges=edges, features=g.features, labels=g.labels)

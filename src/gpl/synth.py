"""Planted two-block graphs with controllable heterophily, PU splits, and
plain-text dataset serialization."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, SparseGraph, _integer, _real, _typed_pairs, build_graph


class DatasetError(ValueError):
    """Raised for unreadable or inconsistent dataset files."""


@dataclass(frozen=True)
class PlantedConfig:
    n: int = 1000
    pi_p: float = 0.25
    h: float = 0.3
    avg_degree: float = 10.0
    feature_dim: int = 8
    feature_separation: float = 2.0  # class-mean offset along the first axis
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 2), ("feature_dim", 1), ("seed", 0)):
            _integer(getattr(self, name), name, least, GraphError)
        for name, ok, rule in (("pi_p", lambda v: 0 < v < 1, "lie strictly in (0, 1)"),
                               ("h", lambda v: 0 <= v <= 1, "lie in [0, 1]"),
                               ("avg_degree", lambda v: 1 <= v < np.inf, "be finite and >= 1"),
                               ("feature_separation", np.isfinite, "be finite")):
            if not ok(_real(getattr(self, name), name, GraphError)):
                raise GraphError(f"{name} must {rule}")


@dataclass(frozen=True)
class PUSplit:
    """Observed positives P, unlabeled rest U, and the hidden true prior."""

    P: np.ndarray       # observed-positive node ids, ascending
    U: np.ndarray       # everything else, ascending
    pi_true: float      # hidden positives in U / |U|


def generate_planted(cfg: PlantedConfig) -> SparseGraph:
    """Two-block graph with exact planted edge counts.

    floor(pi_p * n) nodes are positive. The total edge count is
    round(n * avg_degree / 2) and exactly round(h * m) of those cross
    classes, drawn uniformly without replacement within each pair type, so
    the realized heterophily equals the target up to rounding granularity.
    Features are class-mean +/- mu on the first axis plus unit spherical
    noise. Deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    n_pos = int(np.floor(cfg.pi_p * n))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise GraphError("both classes must be non-empty; adjust n or pi_p")

    m = int(round(cfg.avg_degree * n / 2.0))
    want_cross = int(round(cfg.h * m))
    want_within = m - want_cross
    max_cross = n_pos * n_neg
    max_within = n_pos * (n_pos - 1) // 2 + n_neg * (n_neg - 1) // 2
    if want_cross > max_cross or want_within > max_within:
        lo = max(0, m - max_within) / m
        hi = min(m, max_cross) / m
        raise GraphError(
            f"planted h={cfg.h:.3f} infeasible at n={n}, avg_degree={cfg.avg_degree}: "
            f"achievable h range [{lo:.3f}, {hi:.3f}]"
        )

    perm = rng.permutation(n)
    pos_ids = np.sort(perm[:n_pos])
    neg_ids = np.sort(perm[n_pos:])
    labels = np.full(n, -1, dtype=np.int64)
    labels[pos_ids] = 1

    cross_flat = rng.choice(max_cross, size=want_cross, replace=False)
    within_flat = rng.choice(max_within, size=want_within, replace=False)
    ca, cb = _typed_pairs(cross_flat, pos_ids, neg_ids, True)
    wa, wb = _typed_pairs(within_flat, pos_ids, neg_ids, False)
    src, dst = np.concatenate([ca, wa]), np.concatenate([cb, wb])

    mu = cfg.feature_separation
    features = rng.normal(size=(n, cfg.feature_dim))
    features[:, 0] += mu * labels
    return build_graph(n, np.column_stack([src, dst]), features, labels)


def binarize_labels(multi_labels) -> np.ndarray:
    """Majority class becomes +1, everything else -1; ties pick the smallest id."""
    lab = np.asarray(multi_labels, dtype=np.int64)
    classes, counts = np.unique(lab, return_counts=True)
    if classes.size < 2:
        raise DatasetError("need at least two distinct classes to binarize")
    majority = classes[np.argmax(counts)]  # unique() sorts, argmax takes first tie
    return np.where(lab == majority, 1, -1).astype(np.int64)


def make_pu_split(g: SparseGraph, r_p: float, seed: int) -> PUSplit:
    """Observe a uniformly random r_p fraction of the true positives,
    rounded half up.

    Everything else (hidden positives plus all negatives) is unlabeled;
    pi_true = hidden positives / |U|. A split that observes no positive,
    also on a graph that has none, or leaves U empty is an error.
    """
    if not 0.0 < _real(r_p, "r_p", DatasetError) <= 1.0:
        raise DatasetError("r_p must lie in (0, 1]")
    _integer(seed, "seed", 0, DatasetError)
    pos = np.flatnonzero(g.labels == 1)
    k = int(np.floor(r_p * pos.size + 0.5))
    if k == 0:
        raise DatasetError(f"r_p={r_p:g} observes 0 of {pos.size} positives")
    if k == g.n:
        raise DatasetError(f"r_p={r_p:g} observes all {pos.size} positives and every node is one, so U is empty")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(pos, size=k, replace=False))
    observed = np.zeros(g.n, dtype=bool)
    observed[chosen] = True
    u = np.flatnonzero(~observed)
    hidden = pos.size - k
    return PUSplit(P=chosen, U=u, pi_true=hidden / u.size)


EDGE_FILE = "edges.tsv"
FEATURE_FILE = "features.csv"
LABEL_FILE = "labels.txt"


def save_dataset(g: SparseGraph, directory) -> None:
    """Write edges.tsv, features.csv, labels.txt under `directory`."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, EDGE_FILE), "w", encoding="utf-8") as f:
        for i, j in g.edges:
            f.write(f"{i}\t{j}\n")
    with open(os.path.join(directory, FEATURE_FILE), "w", encoding="utf-8") as f:
        for row in g.features:
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with open(os.path.join(directory, LABEL_FILE), "w", encoding="utf-8") as f:
        for v in g.labels:
            f.write(f"{'+1' if v > 0 else '-1'}\n")


def _parse_lines(path, parse, what):
    if not os.path.exists(path):
        raise DatasetError(f"missing dataset file: {path}")
    out = []
    # undecodable bytes become U+FFFD, which no parser accepts, so the line is named
    with open(path, encoding="utf-8", errors="replace") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(line))
            except Exception as exc:
                raise DatasetError(f"{path}:{ln}: unparseable {what}: {line!r}") from exc
    return out


def _int64(s):
    v = int(s)
    if not -(2**63) <= v < 2**63:
        raise ValueError("outside the int64 range")
    return v


def _feature_row(s):
    row = [float(t) for t in s.split(",")]
    if not np.all(np.isfinite(row)):
        raise ValueError("non-finite value")
    return row


def _parse_edge(s):
    parts = s.split("\t")
    if len(parts) != 2:
        raise ValueError("expected two tab-separated ids")
    return _int64(parts[0]), _int64(parts[1])


def load_dataset(directory) -> SparseGraph:
    """Load a dataset directory written by save_dataset.

    Label files may contain raw multiclass integers; anything that is not
    already a +1/-1 coding is binarized by majority class.
    """
    edges = _parse_lines(os.path.join(directory, EDGE_FILE), _parse_edge, "edge")
    features = _parse_lines(os.path.join(directory, FEATURE_FILE), _feature_row, "feature row")
    widths = {len(r) for r in features}
    if len(widths) > 1:
        raise DatasetError(
            f"{os.path.join(directory, FEATURE_FILE)}: ragged rows, widths {sorted(widths)}"
        )
    labels = _parse_lines(os.path.join(directory, LABEL_FILE), _int64, "label")
    if len(labels) != len(features):
        raise DatasetError(
            f"{directory}: {len(features)} feature rows but {len(labels)} labels"
        )
    lab = np.asarray(labels, dtype=np.int64)
    try:
        if not set(np.unique(lab)) <= {-1, 1}:
            lab = binarize_labels(lab)
        return build_graph(len(labels), edges, features, lab)
    except (GraphError, DatasetError) as exc:
        raise DatasetError(f"{directory}: {exc}") from exc

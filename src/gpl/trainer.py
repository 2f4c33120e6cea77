"""Alternating training loop: edge-mask optimization on the propagation loss,
prior estimation from classifier scores, provisional-positive selection, and
classifier refits, plus the unit-weight reference run."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .cpe import PriorEstimate, estimate_prior
from .gnn import (
    backward_and_step,
    forward,
    init_classifier,
    predict_labels,
    pu_loss,
    select_top,
)
from .graph import SparseGraph, _node_ids, gcn_operator, init_mask, propagation_operator
from .metrics import edge_weight_means, f1_score
from .propagation import (
    PropagationConfig,
    init_beliefs,
    lpl_loss,
    optimize_mask,
    propagate,
)
from .synth import PUSplit


class TrainError(ValueError):
    """Raised for invalid training configuration or divergent runs."""


@dataclass(frozen=True)
class TrainConfig:
    outer_epochs: int = 8
    k_prop: int = 10          # propagation depth K
    k_inner: int = 50         # inner mask gradient steps per outer epoch
    alpha: float = 0.5
    lr_mask: float = 0.2
    lr_clf: float = 0.01
    seed: int = 0
    clf_steps_per_epoch: int = 300
    warmup_steps: int = 50    # classifier steps (U treated negative) before the first estimate
    hidden: int = 16
    lr_schedule: str = "const"  # "const" or "invsqrt" (lr_clf / sqrt(step))

    def __post_init__(self):
        if self.outer_epochs < 1:
            raise TrainError("outer_epochs must be >= 1")
        for name in ("k_prop", "k_inner", "clf_steps_per_epoch", "warmup_steps"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0")
        if self.lr_mask < 0 or self.lr_clf < 0:
            raise TrainError("learning rates must be >= 0")
        if self.hidden < 1:
            raise TrainError("hidden must be >= 1")
        if self.lr_schedule not in ("const", "invsqrt"):
            raise TrainError(f"unknown lr_schedule: {self.lr_schedule}")


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    lpl_loss: float
    pi_hat: float
    clf_loss: float
    f1_u: float
    mean_weight_homo: float
    mean_weight_hetero: float


@dataclass(frozen=True)
class TrainTrace:
    rows: tuple


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


def trace_to_csv(trace: TrainTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        for r in trace.rows:
            vals = [f"{r.epoch:d}"] + [
                f"{getattr(r, c):.17g}" for c in TRACE_COLUMNS[1:]
            ]
            f.write(",".join(vals) + "\n")


def _check_split(g: SparseGraph, split: PUSplit) -> None:
    if len(split.P) + len(split.U) != g.n:
        raise TrainError("split does not cover the node set")
    if np.intersect1d(split.P, split.U).size:
        raise TrainError("observed and unlabeled sets overlap")


def _adam_steps(cfg: TrainConfig, state, op, X, positives, negatives, steps):
    """Run `steps` Adam updates of `state` on pu_loss. Returns (state, loss),
    with the loss taken before the last update, or at `state` if steps is 0.

    The invsqrt rate at the state's t-th update is lr_clf / sqrt(t), so a
    schedule carries on across calls that continue one state.
    """
    positives, negatives = _node_ids(positives), _node_ids(negatives)
    if steps == 0:
        return state, pu_loss(forward(state, op, X), positives, negatives)
    for _ in range(steps):
        lr = cfg.lr_clf
        if cfg.lr_schedule == "invsqrt":
            lr = cfg.lr_clf / np.sqrt(state.t + 1)
        state, loss = backward_and_step(state, op, X, positives, negatives, lr)
    return state, loss


def _warm_start(g: SparseGraph, split: PUSplit, cfg: TrainConfig, op):
    """Scores and prior estimate of a fresh classifier after cfg.warmup_steps
    updates on `op` that treat all of U as negative. Returns (scores, prior).

    Near-constant scores trigger a warning: the ratio curve then degenerates
    to 1 everywhere, so the estimate comes out as 1.
    """
    X = g.features
    state = init_classifier(X.shape[1], hidden=cfg.hidden, seed=cfg.seed)
    state, _ = _adam_steps(cfg, state, op, X, split.P, split.U, cfg.warmup_steps)
    z = forward(state, op, X)
    if float(np.ptp(z)) < 1e-9:
        warnings.warn(
            "classifier scores are near-constant; the prior estimate is "
            "degenerate. Warm the classifier up before estimating.",
            stacklevel=3,
        )
    return z, estimate_prior(z[split.P], z[split.U])


def run_gpl(g: SparseGraph, split: PUSplit, cfg: TrainConfig):
    """The full alternating loop. Returns (classifier, mask, prior, trace).

    Per epoch: (a) anchor beliefs from the observed positives plus the
    current selection, (b) mask descent on the propagation loss, (c) refit
    the classifier on the updated operator with the grouped loss, (d) prior
    estimate from the refit scores, (e) top-fraction selection feeding the
    next epoch. Deterministic for a fixed config, including the seed.
    """
    _check_split(g, split)
    pcfg = PropagationConfig(alpha=cfg.alpha, k_prop=cfg.k_prop)
    X = g.features
    mask = init_mask(g)

    # bootstrap: no selection exists yet, so warm a classifier on the
    # initial structure with all of U treated negative and estimate once
    z, prior = _warm_start(g, split, cfg, gcn_operator(g, mask))
    sel = select_top(split.U, z[split.U], prior.pi_hat)

    rows = []
    for epoch in range(1, cfg.outer_epochs + 1):
        e0 = init_beliefs(split, positives=sel.s_set, negatives=sel.complement)
        pos_anchor = np.concatenate([split.P, sel.s_set])
        neg_anchor = sel.complement

        if cfg.k_inner > 0 and g.m > 0:
            mask = optimize_mask(
                g, mask, e0, pcfg, pos_anchor, neg_anchor,
                steps=cfg.k_inner, lr=cfg.lr_mask,
            )
        lpl = lpl_loss(
            propagate(propagation_operator(g, mask), e0, pcfg),
            pos_anchor, neg_anchor,
        )

        # Refit from the seed initialization, not warm-started. The bilevel
        # objective evaluates the outer quantities at the inner argmin. Warm
        # starts under a moving anchor set let early selection mistakes
        # compound: each epoch the classifier pushes the unselected positives
        # further down, the next selection trusts those scores, and the
        # estimate decays toward zero.
        op = gcn_operator(g, mask)
        clf = init_classifier(X.shape[1], hidden=cfg.hidden, seed=cfg.seed)
        clf, clf_loss = _adam_steps(
            cfg, clf, op, X, pos_anchor, neg_anchor, cfg.clf_steps_per_epoch
        )
        z = forward(clf, op, X)

        prior = estimate_prior(z[split.P], z[split.U])
        sel = select_top(split.U, z[split.U], prior.pi_hat)

        f1 = f1_score(predict_labels(z), g.labels, split.U)
        homo, hetero = edge_weight_means(g, mask)
        row = TraceRow(epoch, float(lpl), prior.pi_hat, float(clf_loss), f1, homo, hetero)
        for col in ("lpl_loss", "pi_hat", "clf_loss", "f1_u"):
            if not np.isfinite(getattr(row, col)):
                raise TrainError(f"non-finite {col} at epoch {epoch}")
        rows.append(row)

    return clf, mask, prior, TrainTrace(tuple(rows))


def run_baseline(g: SparseGraph, split: PUSplit, cfg: TrainConfig):
    """Unit-weight reference: same classifier, optimizer, and step budget,
    no mask learning, no selection; all of 𝒰 treated as negative throughout.
    The per-epoch π̂ column is observational (estimated from the scores, fed
    back into nothing)."""
    _check_split(g, split)
    clf = init_classifier(g.features.shape[1], hidden=cfg.hidden, seed=cfg.seed)
    X = g.features
    op = gcn_operator(g, None)
    homo, hetero = edge_weight_means(g, None)
    clf, _ = _adam_steps(cfg, clf, op, X, split.P, split.U, cfg.warmup_steps)

    rows = []
    nan = float("nan")
    for epoch in range(1, cfg.outer_epochs + 1):
        clf, clf_loss = _adam_steps(
            cfg, clf, op, X, split.P, split.U, cfg.clf_steps_per_epoch
        )
        zf = forward(clf, op, X)
        prior = estimate_prior(zf[split.P], zf[split.U])
        f1 = f1_score(predict_labels(zf), g.labels, split.U)
        if not np.isfinite(clf_loss) or not np.isfinite(f1):
            raise TrainError(f"non-finite trace value at epoch {epoch}")
        rows.append(TraceRow(epoch, nan, prior.pi_hat, float(clf_loss), f1, homo, hetero))

    return clf, TrainTrace(tuple(rows))


def first_epoch_prior(g: SparseGraph, split: PUSplit, cfg: TrainConfig) -> PriorEstimate:
    """The prior estimate run_gpl bootstraps from, before any mask learning.

    Scores come from a fresh classifier after cfg.warmup_steps updates on
    the initial mask's operator (init_mask) that treat all of U as
    negative. Near-constant scores, as untrained weights give with
    warmup_steps=0, trigger a warning and an estimate of 1.
    """
    _check_split(g, split)
    return _warm_start(g, split, cfg, gcn_operator(g, init_mask(g)))[1]

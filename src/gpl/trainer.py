"""Alternating training loop: edge-mask optimization on the propagation loss,
prior estimation from classifier scores, provisional-positive selection, and
classifier refits, plus the unit-weight reference run."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .cpe import estimate_prior
from .gnn import (
    Workspace,
    _pu_loss,
    backward_and_step,
    init_classifier,
    predict_labels,
    scores,
    select_top,
)
from .graph import SparseGraph, _integer, _node_ids, _real, gcn_operator, init_mask, propagation_operator
from .metrics import edge_weight_means, f1_score
from .propagation import (
    PropagationConfig,
    PropagationError,
    _anchor_beliefs,
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

    def __post_init__(self):
        try:
            PropagationConfig(alpha=self.alpha, k_prop=self.k_prop)
        except PropagationError as exc:
            raise TrainError(str(exc)) from exc
        for name, least in (("outer_epochs", 1), ("k_inner", 0), ("clf_steps_per_epoch", 0), ("warmup_steps", 0),
                            ("hidden", 1), ("seed", 0)):
            _integer(getattr(self, name), name, least, TrainError)
        for name in ("lr_mask", "lr_clf"):
            if not 0 <= _real(getattr(self, name), name, TrainError) < np.inf:
                raise TrainError(f"{name} must be finite and >= 0")


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
    """P and U must hold every node id in [0, n) exactly once between them."""
    ids = np.concatenate(_node_ids(g.n, split.P, split.U, error=TrainError, what="split", disjoint=True))
    if ids.size < g.n:  # each id is in range and appears once, so one is missing
        raise TrainError(f"split does not cover node {np.argmin(np.bincount(ids, minlength=g.n))}")


def _fit(cfg: TrainConfig, work: Workspace, steps, state=None):
    """Run `steps` Adam updates on pu_loss over work's operator, features
    and id sets, from `state`, or from the classifier seeded by cfg when
    state is None. Returns (state, loss, z): the loss taken before the last
    update, or at the start if steps is 0, and the scores after the last one.
    """
    if state is None:
        state = init_classifier(work.X.shape[1], hidden=cfg.hidden, seed=cfg.seed)
    for _ in range(steps):
        state, loss = backward_and_step(state, work, cfg.lr_clf)
    z = scores(state, work)
    if steps == 0:
        loss = _pu_loss(z, work.pos, work.neg)[0]
    return state, loss, z


def _epoch_row(g: SparseGraph, split: PUSplit, weight_means, epoch: int, lpl: float, clf_loss, z):
    """Prior estimate from the refit scores z and the epoch's trace row, with
    weight_means from edge_weight_means. Returns (prior, row); a non-finite
    estimate, loss or F1 is an error."""
    prior = estimate_prior(z[split.P], z[split.U])
    f1 = f1_score(predict_labels(z), g.labels, split.U)
    row = TraceRow(epoch, lpl, prior.pi_hat, float(clf_loss), f1, *weight_means)
    for col in ("pi_hat", "clf_loss", "f1_u"):
        if not np.isfinite(getattr(row, col)):
            raise TrainError(f"non-finite {col} at epoch {epoch}")
    return prior, row


def _warm_start(g: SparseGraph, split: PUSplit, cfg: TrainConfig, op):
    """Scores and prior estimate of a fresh classifier after cfg.warmup_steps
    updates on `op` that treat all of U as negative. Returns (scores, prior).

    Near-constant scores trigger a warning: the ratio curve then degenerates
    to 1 everywhere, so the estimate comes out as 1.
    """
    _, _, z = _fit(cfg, Workspace(op, g.features, cfg.hidden, split.P, split.U), cfg.warmup_steps)
    if float(np.ptp(z)) < 1e-9:
        warnings.warn(
            "classifier scores are near-constant; the prior estimate is "
            "degenerate. Warm the classifier up before estimating.",
            stacklevel=3,
        )
    return z, estimate_prior(z[split.P], z[split.U])


def run_gpl(g: SparseGraph, split: PUSplit, cfg: TrainConfig):
    """The full alternating loop. Returns (classifier, mask, prior, trace).

    Per epoch: (a) top-fraction selection from the latest scores and prior,
    (b) anchor beliefs from the observed positives plus that selection, (c)
    mask descent on the propagation loss, (d) refit the classifier on the
    updated operator with the grouped loss, (e) prior estimate from the
    refit scores. Deterministic for a fixed config, including the seed.
    """
    _check_split(g, split)
    pcfg = PropagationConfig(alpha=cfg.alpha, k_prop=cfg.k_prop)
    mask = init_mask(g)

    # bootstrap: no selection exists yet, so warm a classifier on the initial
    # structure with all of U treated negative; epoch 1 selects from its estimate
    z, prior = _warm_start(g, split, cfg, gcn_operator(g, mask))

    rows = []
    for epoch in range(1, cfg.outer_epochs + 1):
        sel = select_top(split.U, z, prior.pi_hat)
        pos_anchor = np.concatenate([split.P, sel.s_set])
        neg_anchor = sel.complement

        if cfg.k_inner > 0 and g.m > 0:
            mask = optimize_mask(
                g, mask, pcfg, pos_anchor, neg_anchor,
                steps=cfg.k_inner, lr=cfg.lr_mask,
            )
        e0 = _anchor_beliefs(g.n, pos_anchor, neg_anchor)
        lpl = lpl_loss(propagate(propagation_operator(g, mask), e0, pcfg)[-1], pos_anchor, neg_anchor)
        if not np.isfinite(lpl):
            raise TrainError(f"non-finite lpl_loss at epoch {epoch}")

        # Refit from the seed initialization, not warm-started. The bilevel
        # objective evaluates the outer quantities at the inner argmin. Warm
        # starts under a moving anchor set let early selection mistakes
        # compound: each epoch the classifier pushes the unselected positives
        # further down, the next selection trusts those scores, and the
        # estimate decays toward zero.
        work = Workspace(gcn_operator(g, mask), g.features, cfg.hidden, pos_anchor, neg_anchor)
        clf, clf_loss, z = _fit(cfg, work, cfg.clf_steps_per_epoch)
        prior, row = _epoch_row(g, split, edge_weight_means(g, mask), epoch, lpl, clf_loss, z)
        rows.append(row)

    return clf, mask, prior, TrainTrace(tuple(rows))


def run_baseline(g: SparseGraph, split: PUSplit, cfg: TrainConfig):
    """Unit-weight reference: same classifier, optimizer, and step budget,
    no mask learning, no selection; all of 𝒰 treated as negative throughout.
    The per-epoch π̂ column is observational (estimated from the scores, fed
    back into nothing)."""
    _check_split(g, split)
    work = Workspace(gcn_operator(g, None), g.features, cfg.hidden, split.P, split.U)
    means = edge_weight_means(g, None)  # unit weights, the same every epoch
    clf, _, _ = _fit(cfg, work, cfg.warmup_steps)

    rows = []
    for epoch in range(1, cfg.outer_epochs + 1):
        clf, clf_loss, z = _fit(cfg, work, cfg.clf_steps_per_epoch, clf)
        rows.append(_epoch_row(g, split, means, epoch, float("nan"), clf_loss, z)[1])

    return clf, TrainTrace(tuple(rows))

"""Class-prior estimation from score distributions on positive and unlabeled sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _array, _real


class PriorEstimationError(ValueError):
    """Raised when no admissible threshold survives the support floor."""


@dataclass(frozen=True)
class PriorEstimate:
    pi_hat: float
    c_star: float
    # (k, 5) array, one row per candidate threshold: c, q_u, q_p, ratio,
    # admissible (1.0 or 0.0)
    curve: np.ndarray


def _as_scores(x, name) -> np.ndarray:
    s = _array(x, f"{name} scores", ("n",), PriorEstimationError)
    if s.size == 0:
        raise PriorEstimationError(f"{name} score set is empty")
    if np.any((s < 0) | (s > 1)) or not np.all(np.isfinite(s)):
        raise PriorEstimationError(f"{name} scores must lie in [0, 1]")
    return s


def _upper_tail(scores: np.ndarray, cand: np.ndarray) -> np.ndarray:
    # fraction of scores >= each candidate, by counting in sorted order
    below = np.searchsorted(np.sort(scores), cand, side="left")
    return (scores.size - below) / scores.size


def estimate_prior(scores_p, scores_u, q_floor: float | None = None) -> PriorEstimate:
    """Minimum of Q_u(c)/Q_p(c) over candidate thresholds.

    Candidates are the distinct observed scores of both sets plus 0.
    Thresholds whose positive-set support Q_p(c) falls below q_floor are
    excluded: the ratio estimator degrades as 1/Q_p(c), so thresholds
    backed by a handful of positive scores are unusable. The default floor
    asks for at least 10 positive samples above c, never less than 0.05,
    and relaxes to plain 0.05 for positive sets smaller than 10 (otherwise
    every threshold would be excluded). Ties pick the smallest c; the
    estimate is clipped to [0, 1].
    """
    sp_ = _as_scores(scores_p, "positive")
    su = _as_scores(scores_u, "unlabeled")
    if q_floor is None:
        q_floor = max(10.0 / sp_.size, 0.05) if sp_.size >= 10 else 0.05
    if not _real(q_floor, "q_floor", PriorEstimationError) >= 0:  # NaN fails this too
        raise PriorEstimationError(f"q_floor must be >= 0, got {q_floor}")

    cand = np.unique(np.concatenate([sp_, su, [0.0]]))
    q_u = _upper_tail(su, cand)
    q_p = _upper_tail(sp_, cand)
    admissible = q_p >= q_floor

    ratio = np.where(q_p > 0, q_u / np.where(q_p > 0, q_p, 1.0), np.inf)

    curve = np.column_stack([cand, q_u, q_p, ratio, admissible])
    if not admissible.any():
        ok = np.flatnonzero(q_p > 0)
        hint = f"{cand[ok[-1]]:.6g}" if ok.size else "none"
        raise PriorEstimationError(
            f"all candidate thresholds excluded: q_floor={q_floor:.4g} exceeds "
            f"max Q_p={q_p.max():.4g}; max admissible c at this floor: {hint}"
        )

    idx = np.flatnonzero(admissible)
    best = idx[np.argmin(ratio[idx])]  # np.argmin takes the first, i.e. smallest c
    pi_hat = float(np.clip(ratio[best], 0.0, 1.0))
    return PriorEstimate(pi_hat=pi_hat, c_star=float(cand[best]), curve=curve)


def prior_error(pi_hat: float, pi_true: float) -> float:
    """Absolute estimation error |pi_hat - pi_true|."""
    for v, name in ((pi_hat, "pi_hat"), (pi_true, "pi_true")):
        if not 0.0 <= _real(v, name, PriorEstimationError) <= 1.0:
            raise PriorEstimationError(f"{name} must lie in [0, 1]")
    return abs(pi_hat - pi_true)

"""Output checks for the benchmark, written apart from the package.

The operator, the forward pass, F1, the prior estimate and the edge-weight
means are recomputed here from the returned classifier, mask and graph
with plain numpy/scipy, so a fast but wrong program fails even on seeds
that have no stored reference. A sweep's runs.csv is range-checked here;
its rows are also compared with direct run_gpl / run_baseline calls that
pass these checks (run.check_sweep_rows). Stored references are compared
with the 1e-9 float tolerance the project uses for its output fingerprint.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.sparse as sp

TOL = 1e-9


class CheckFailed(AssertionError):
    """Raised when a program output disagrees with its check."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def close(a, b) -> bool:
    return abs(a - b) <= TOL


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def gcn_scores(n, edges, edge_w, X, W1, b1, W2, b2):
    """sigmoid(S relu(S X W1 + b1) W2 + b2) with S = D^-1/2 (W + I) D^-1/2."""
    i, j = edges[:, 0], edges[:, 1]
    loops = np.arange(n)
    rows = np.concatenate([i, j, loops])
    cols = np.concatenate([j, i, loops])
    data = np.concatenate([edge_w, edge_w, np.ones(n)])
    deg = np.bincount(rows, weights=data, minlength=n)
    dinv = 1.0 / np.sqrt(deg)
    S = sp.csr_matrix((data * dinv[rows] * dinv[cols], (rows, cols)), shape=(n, n))
    h = np.maximum(S @ X @ W1 + b1, 0.0)
    return 1.0 / (1.0 + np.exp(-((S @ (h @ W2)).ravel() + b2[0])))


def f1_positive(scores, labels, idx) -> float:
    pred = scores[idx] >= 0.5
    truth = labels[idx] == 1
    tp = int(np.sum(pred & truth))
    wrong = int(np.sum(pred != truth))
    return 0.0 if 2 * tp + wrong == 0 else 2.0 * tp / (2 * tp + wrong)


def min_tail_ratio(sp_, su) -> float:
    """min over thresholds c of Q_u(c) / Q_p(c), by sorting.

    Thresholds are the distinct scores of both sets plus 0; those with
    Q_p(c) below max(10/|P|, 0.05) (0.05 for |P| < 10) are not admissible.
    """
    floor = max(10.0 / sp_.size, 0.05) if sp_.size >= 10 else 0.05
    cand = np.unique(np.concatenate([sp_, su, [0.0]]))
    q_p = (sp_.size - np.searchsorted(np.sort(sp_), cand, side="left")) / sp_.size
    q_u = (su.size - np.searchsorted(np.sort(su), cand, side="left")) / su.size
    ok = q_p >= floor
    require(ok.any(), "no admissible prior threshold")
    ratio = q_u[ok] / q_p[ok]
    return float(np.clip(ratio[np.argmin(ratio)], 0.0, 1.0))


def weight_means(edges, labels, edge_w):
    cross = labels[edges[:, 0]] != labels[edges[:, 1]]
    return float(edge_w[~cross].mean()), float(edge_w[cross].mean())


def check_training(g, split, clf, theta, trace_rows, program_scores, epochs, masked):
    """Check one run_gpl / run_baseline result; returns the fingerprint.

    `program_scores` are the package's own final scores (forward on its
    own operator); they must agree with the recomputation to 1e-9, and the
    F1 and prior in the last trace row are recomputed from them.
    """
    require(len(trace_rows) == epochs, f"trace has {len(trace_rows)} rows, expected {epochs}")
    require([r.epoch for r in trace_rows] == list(range(1, epochs + 1)), "trace epochs out of order")
    for r in trace_rows:
        for col in ("pi_hat", "clf_loss", "f1_u", "mean_weight_homo", "mean_weight_hetero"):
            require(math.isfinite(getattr(r, col)), f"epoch {r.epoch}: {col} not finite")
        require(0.0 <= r.pi_hat <= 1.0 and 0.0 <= r.f1_u <= 1.0, f"epoch {r.epoch}: value outside [0, 1]")
        require(math.isfinite(r.lpl_loss) == masked, f"epoch {r.epoch}: lpl_loss finite iff masked")

    edge_w = 1.0 / (1.0 + np.exp(-theta)) if masked else np.ones(g.m)
    z = gcn_scores(g.n, g.edges, edge_w, g.features, clf.W1, clf.b1, clf.W2, clf.b2)
    gap = float(np.max(np.abs(z - program_scores)))
    require(gap <= TOL, f"final scores differ from recomputation by {gap:.3g}")

    last = trace_rows[-1]
    f1 = f1_positive(program_scores, g.labels, split.U)
    require(close(f1, last.f1_u), f"f1_u {last.f1_u!r} != recomputed {f1!r}")
    pi_hat = min_tail_ratio(program_scores[split.P], program_scores[split.U])
    require(close(pi_hat, last.pi_hat), f"pi_hat {last.pi_hat!r} != recomputed {pi_hat!r}")
    homo, hetero = weight_means(g.edges, g.labels, edge_w)
    require(close(homo, last.mean_weight_homo) and close(hetero, last.mean_weight_hetero),
            "mask weight means differ from recomputation")
    return {
        "f1_u": last.f1_u,
        "pi_hat": last.pi_hat,
        "pi_true": split.pi_true,
        "mean_weight_homo": homo,
        "mean_weight_hetero": hetero,
    }


def check_runs_csv(text, expected_rows):
    """Parse and check a sweep's runs.csv against the expected grid.

    `expected_rows` is a list of (value, seed, method, pi_true) in file
    order. Returns the per-row fingerprint dicts.
    """
    lines = text.splitlines()
    require(lines[0].startswith("var,value,seed,method,f1,pi_hat,pi_true"), "runs.csv header")
    require(len(lines) - 1 == len(expected_rows), f"runs.csv has {len(lines) - 1} rows")
    out = []
    for line, (value, seed, method, pi_true) in zip(lines[1:], expected_rows):
        f = line.split(",")
        require(float(f[1]) == value and int(f[2]) == seed and f[3] == method,
                f"runs.csv row {line!r}: expected ({value}, {seed}, {method})")
        f1, pi_hat, pi_t, err, homo, hetero = map(float, f[4:10])
        require(0.0 <= f1 <= 1.0 and 0.0 <= pi_hat <= 1.0, f"runs.csv row {line!r}: outside [0, 1]")
        require(pi_t == pi_true, f"runs.csv row {line!r}: pi_true != {pi_true!r}")
        require(err == abs(pi_hat - pi_t), f"runs.csv row {line!r}: prior_error")
        require(0.0 < homo <= 1.0 and 0.0 < hetero <= 1.0, f"runs.csv row {line!r}: weight means")
        if method == "baseline":
            require(homo == 1.0 and hetero == 1.0, f"runs.csv row {line!r}: baseline weights")
        out.append({"f1_u": f1, "pi_hat": pi_hat, "prior_abs_err": err,
                    "mean_weight_homo": homo, "mean_weight_hetero": hetero})
    return out


def compare_reference(fingerprint: dict, reference: dict, where: str):
    """Every float in the stored reference must match to 1e-9."""
    for key, want in reference.items():
        got = fingerprint.get(key)
        if isinstance(want, list):
            require(isinstance(got, list) and len(got) == len(want), f"{where}: {key} length")
            for k, (a, b) in enumerate(zip(got, want)):
                require(close(float(a), float(b)), f"{where}: {key}[{k}] {a!r} != reference {b!r}")
        elif isinstance(want, float):
            require(got is not None and close(float(got), want), f"{where}: {key} {got!r} != reference {want!r}")
        else:
            require(got == want, f"{where}: {key} {got!r} != reference {want!r}")

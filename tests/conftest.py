import numpy as np
import pytest

from gpl.graph import build_graph
from gpl.synth import PlantedConfig, generate_planted, make_pu_split


@pytest.fixture
def path2():
    """Two nodes joined by one edge, opposite labels."""
    X = np.array([[1.0], [-1.0]])
    return build_graph(2, [(0, 1)], X, np.array([1, -1]))


@pytest.fixture
def path3():
    """Path 0-1-2, ends positive, middle negative."""
    X = np.arange(6, dtype=float).reshape(3, 2)
    return build_graph(3, [(0, 1), (1, 2)], X, np.array([1, -1, 1]))


@pytest.fixture
def two_blocks():
    """Small planted graph, mostly homophilic."""
    cfg = PlantedConfig(n=60, pi_p=0.5, h=0.1, avg_degree=6,
                        feature_dim=4, feature_separation=2.0, seed=7)
    return generate_planted(cfg)


@pytest.fixture
def two_blocks_split(two_blocks):
    return make_pu_split(two_blocks, 0.5, seed=7)


def separable_score_mixture(rng, n, pi):
    """Positive and unlabeled score samples with disjoint class supports.

    Positives live on [0.55, 1] with half their mass piled at 0.95 (the
    pile-up a saturating scorer produces); negatives live on [0, 0.45].
    The gap keeps the top-threshold ratio estimator identifiable, and the
    atom gives it a high-support candidate so the min over thresholds is
    not dominated by thin-tail noise.
    """
    def pos(m):
        x = 0.55 + 0.45 * rng.beta(2, 2, size=m)
        x[rng.random(m) < 0.5] = 0.95
        return x

    sp = pos(n)
    k = int(round(pi * n))
    su = np.concatenate([pos(k), 0.45 * rng.beta(2, 2, size=n - k)])
    return sp, su

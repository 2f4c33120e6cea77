"""Every function that takes a float array reads it through one checked
reader (graph._array), and every real-valued setting through another
(graph._real). A Python list reads as the ndarray it spells, bit for bit. A
ragged list, text, an integer past float64's range, another ndim, another
fixed length, and a boolean, string, None or list setting raise the
function's own module error, naming the input: never an AttributeError, a
TypeError, an OverflowError, numpy's own ValueError, or a returned value."""

import numpy as np
import pytest

from gpl.cpe import PriorEstimationError, estimate_prior, prior_error
from gpl.gnn import ClassifierError, Workspace, backward_and_step, init_classifier, select_top
from gpl.graph import GraphError, build_graph, gcn_operator, init_mask, propagation_operator, rewire_to_heterophily
from gpl.metrics import (check_aggregation_contraction, dpn_distance, f1_score, heterophily_influence,
                         irreducibility_diagnostic)
from gpl.propagation import PropagationConfig, PropagationError, lpl_gradient, lpl_loss, optimize_mask, propagate
from gpl.synth import DatasetError, PlantedConfig, make_pu_split
from gpl.trainer import TrainConfig, TrainError

# a check must fire before numpy warns about the value it rejects
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N = 6
LABELS = np.array([1, -1, 1, -1, 1, -1])
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]
RNG = np.random.default_rng(0)
X = RNG.normal(size=(N, 2))
BELIEFS = RNG.dirichlet([1.0, 1.0], size=N)
SCORES = RNG.uniform(size=N)
PRED = np.array([1, 1, -1, -1, 1, -1])
G = build_graph(N, EDGES, X, LABELS)
OP = propagation_operator(G, None)
CFG = PropagationConfig(alpha=0.5, k_prop=2)


def _selection(r):
    return np.concatenate([r.s_set, r.complement])


# name -> (error, call on the array, a good ndarray, one of another fixed length or None)
ARRAYS = {
    "build_graph": (GraphError, lambda x: build_graph(N, EDGES, x, LABELS).features, X, X[:-1]),
    "Workspace": (ClassifierError, lambda x: Workspace(gcn_operator(G, None), x, 3).xs1T, X, None),
    "select_top": (ClassifierError, lambda z: _selection(select_top(np.arange(N), z, 0.5)), SCORES, None),
    "f1_score-pred": (GraphError, lambda p: f1_score(p, LABELS, np.arange(N)), PRED, None),
    "f1_score-truth": (GraphError, lambda t: f1_score(PRED, t, np.arange(N)), LABELS, None),
    "heterophily_influence": (ValueError, lambda e0: heterophily_influence(OP, e0, CFG, 0, 3), BELIEFS,
                              BELIEFS[:, :1]),
    "dpn_distance": (ValueError, lambda x: dpn_distance(x, G, OP), X, X[:-1]),
    "check_aggregation_contraction": (ValueError, lambda x: check_aggregation_contraction(G, None, x), X, X[:-1]),
    "propagate": (PropagationError, lambda e0: np.stack(propagate(OP, e0, CFG)), BELIEFS, BELIEFS[:-1]),
    "lpl_loss": (PropagationError, lambda b: lpl_loss(b, [0], [1]), BELIEFS, np.hstack([BELIEFS, BELIEFS])),
    "lpl_gradient": (PropagationError, lambda s: lpl_gradient(G, init_mask(G), [s] * 3, CFG, [0], [1]),
                     BELIEFS, BELIEFS[:-1]),
    "estimate_prior": (PriorEstimationError, lambda s: estimate_prior(s, SCORES).curve, SCORES, None),
    "irreducibility_diagnostic": (PriorEstimationError, irreducibility_diagnostic, SCORES, None),
}

# case -> (the bad input made from a good ndarray, what the message names)
CASES = {
    "ragged": (lambda a: [a.tolist(), [0.0]], "got a ragged or non-numeric input"),
    "text": (lambda a: np.full(a.shape, "x").tolist(), "got a ragged or non-numeric input"),
    "past_float64": (lambda a: [10**400] * len(a), "got a ragged or non-numeric input"),
    "ndim": (lambda a: a[None], "got shape (1, "),
}


def _table():
    for name, (_, _, _, wrong_length) in ARRAYS.items():
        for case in CASES:
            yield pytest.param(name, case, id=f"{name}-{case}")
        if wrong_length is not None:
            yield pytest.param(name, "length", id=f"{name}-length")


@pytest.mark.parametrize("name", ARRAYS)
def test_a_list_reads_as_its_ndarray_bit_for_bit(name):
    _, call, good, _ = ARRAYS[name]
    want, got = np.asarray(call(good)), np.asarray(call(good.tolist()))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, case", _table())
def test_bad_arrays_raise_the_module_error(name, case):
    error, call, good, wrong_length = ARRAYS[name]
    if case == "length":
        bad, named = wrong_length, f"got shape {wrong_length.shape}"
    else:
        make, named = CASES[case]
        bad = make(good)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert type(info.value) is error
    assert " must be " in str(info.value) and named in str(info.value)


def _step(lr):
    return backward_and_step(init_classifier(2, 3, seed=0), Workspace(gcn_operator(G, None), X, 3, [0], [1]), lr)


# name -> (error, the name its message gives, call on the value)
REALS = {
    "TrainConfig-alpha": (TrainError, "alpha", lambda v: TrainConfig(alpha=v)),
    "TrainConfig-lr_mask": (TrainError, "lr_mask", lambda v: TrainConfig(lr_mask=v)),
    "TrainConfig-lr_clf": (TrainError, "lr_clf", lambda v: TrainConfig(lr_clf=v)),
    "PropagationConfig-alpha": (PropagationError, "alpha", lambda v: PropagationConfig(v, 2)),
    "PlantedConfig-pi_p": (GraphError, "pi_p", lambda v: PlantedConfig(pi_p=v)),
    "PlantedConfig-h": (GraphError, "h", lambda v: PlantedConfig(h=v)),
    "PlantedConfig-avg_degree": (GraphError, "avg_degree", lambda v: PlantedConfig(avg_degree=v)),
    "PlantedConfig-feature_separation": (GraphError, "feature_separation",
                                         lambda v: PlantedConfig(feature_separation=v)),
    "select_top": (ClassifierError, "pi_hat", lambda v: select_top([0, 1], np.zeros(N), v)),
    "rewire_to_heterophily": (GraphError, "target heterophily", lambda v: rewire_to_heterophily(G, v, 0)),
    "make_pu_split": (DatasetError, "r_p", lambda v: make_pu_split(G, v, seed=0)),
    "estimate_prior-q_floor": (PriorEstimationError, "q_floor",
                               lambda v: estimate_prior([0.5, 0.6], [0.1], q_floor=v)),
    "prior_error-pi_hat": (PriorEstimationError, "pi_hat", lambda v: prior_error(v, 0.2)),
    "prior_error-pi_true": (PriorEstimationError, "pi_true", lambda v: prior_error(0.2, v)),
    "optimize_mask-lr": (PropagationError, "lr",
                         lambda v: optimize_mask(G, init_mask(G), CFG, [0], [1], steps=1, lr=v)),
    "backward_and_step-lr": (ClassifierError, "lr", _step),
}

REAL_CASES = {"bool": True, "str": "0.5", "none": None, "list": [0.5]}


def _real_table():
    for name in REALS:
        for case in REAL_CASES:
            if case == "none" and name == "estimate_prior-q_floor":
                continue  # None asks for the default floor
            yield pytest.param(name, case, id=f"{name}-{case}")


@pytest.mark.parametrize("name, case", _real_table())
def test_non_numbers_raise_the_module_error(name, case):
    error, named, call = REALS[name]
    value = REAL_CASES[case]
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{named} must be a real number, got {value!r}"


def test_ints_and_numpy_scalars_are_real():
    assert PlantedConfig(pi_p=np.float32(0.5), h=1, avg_degree=np.int64(4)).avg_degree == 4
    assert TrainConfig(lr_mask=0, lr_clf=np.float64(0.1)).lr_clf == 0.1
    assert prior_error(1, np.float16(0.5)) == 0.5

"""Every public function that takes node ids reads them through one checked
reader (graph._node_ids). An id outside [0, n), a bare id, a 2-d or ragged
set, a float or boolean set, a boolean among integer ids, and a repeated id
where the function's sets must be disjoint all raise the function's own
module error, naming the id, the shape or the dtype: never an IndexError, a
TypeError, a numpy ValueError, or a returned value."""

import numpy as np
import pytest

from gpl.gnn import ClassifierError, Workspace, init_classifier, loss_gradients, pu_loss, select_top
from gpl.graph import GraphError, build_graph, gcn_operator, init_mask, propagation_operator
from gpl.metrics import f1_score
from gpl.propagation import (
    PropagationConfig,
    PropagationError,
    _anchor_beliefs,
    lpl_gradient,
    lpl_loss,
    optimize_mask,
    propagate,
)
from gpl.synth import PUSplit
from gpl.trainer import TrainConfig, TrainError, run_baseline, run_gpl

N = 6
LABELS = np.array([1, -1, 1, -1, 1, -1])
G = build_graph(N, [(i, i + 1) for i in range(N - 1)], np.arange(2 * N, dtype=float).reshape(N, 2), LABELS)
CFG = PropagationConfig(alpha=0.5, k_prop=2)
TRAIN = TrainConfig(outer_epochs=1, k_inner=1, clf_steps_per_epoch=1, warmup_steps=1)


def _states():
    return propagate(propagation_operator(G, None), _anchor_beliefs(N, [0], [1]), CFG)


def _split(ids):
    return PUSplit(P=ids, U=np.array([3, 4, 5]), pi_true=0.5)


# name -> (error, whether its sets must be disjoint, call on the bad ids)
CALLS = {
    "lpl_loss": (PropagationError, True, lambda ids: lpl_loss(np.full((N, 2), 0.5), ids, [5])),
    "lpl_gradient": (PropagationError, True,
                     lambda ids: lpl_gradient(G, init_mask(G), _states(), CFG, [0], ids)),
    "optimize_mask": (PropagationError, True,
                      lambda ids: optimize_mask(G, init_mask(G), CFG, ids, [5], steps=1, lr=0.1)),
    "pu_loss": (ClassifierError, True, lambda ids: pu_loss(np.full(N, 0.5), [5], ids)),
    "loss_gradients": (ClassifierError, True,
                       lambda ids: loss_gradients(init_classifier(2, 3, seed=0),
                                                  Workspace(gcn_operator(G, None), G.features, 3, ids, [5]))),
    "f1_score": (GraphError, False, lambda ids: f1_score(LABELS, LABELS, ids)),
    "select_top": (ClassifierError, True, lambda ids: select_top(ids, np.zeros(N), 0.5)),
    "run_gpl": (TrainError, True, lambda ids: run_gpl(G, _split(ids), TRAIN)),
    "run_baseline": (TrainError, True, lambda ids: run_baseline(G, _split(ids), TRAIN)),
}

# case -> (ids, what the message names)
CASES = {
    "below": ([0, -1], "id -1 is out of range"),
    "at_n": ([0, N], f"id {N} is out of range for {N} nodes"),
    "float": (np.array([0.0, 1.0]), "got dtype float64"),
    "bool": (LABELS == 1, "got dtype bool"),
    "repeat": ([1, 2, 1], "id 1 appears more than once"),
    "scalar": (0, "ids must be a 1-d set, got a 0-d input"),
    "ragged": ([[0, 1], [2]], "ids must be a 1-d set, got a ragged input"),
    # numpy reads [True, 2] as int64, where True would be node 1
    "bool_among_ints": ([True, 2], "(not boolean masks), got a boolean among integers"),
}


def _table():
    for name, (error, disjoint, _) in CALLS.items():
        for case in CASES:
            if case == "repeat" and not disjoint:
                continue
            yield pytest.param(name, case, id=f"{name}-{case}")


@pytest.mark.parametrize("name, case", _table())
def test_bad_ids_raise_the_module_error(name, case):
    error, _, call = CALLS[name]
    ids, named = CASES[case]
    with pytest.raises(ValueError) as info:
        call(ids)
    assert type(info.value) is error
    assert named in str(info.value)


@pytest.mark.parametrize("name", [k for k, (_, disjoint, _) in CALLS.items() if not disjoint])
def test_repeats_are_read_where_sets_may_repeat(name):
    assert np.isfinite(CALLS[name][2]([1, 2, 1]))


# every call above whose ids meet a second set; select_top reads one set
@pytest.mark.parametrize("name", [k for k, (_, disjoint, _) in CALLS.items() if disjoint and k != "select_top"])
def test_two_sets_may_not_share_an_id(name):
    error, _, call = CALLS[name]
    with pytest.raises(ValueError) as info:
        call([0, 5])
    assert type(info.value) is error
    assert "sets overlap at node" in str(info.value)

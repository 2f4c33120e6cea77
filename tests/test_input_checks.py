"""One case for each input check that the other tests leave unreached: the
call raises its module's own error type with the message given. A
monkeypatch stands in only where no input can cause the fault."""

import re

import numpy as np
import pytest

import gpl.trainer
from gpl.gnn import ClassifierError, Workspace, backward_and_step, init_classifier, loss_gradients, select_top
from gpl.graph import (
    EdgeMask,
    GraphError,
    build_graph,
    gcn_operator,
    init_mask,
    propagation_operator,
    rewire_to_heterophily,
)
from gpl.metrics import check_aggregation_contraction, dpn_distance, f1_score
from gpl.propagation import PropagationConfig, PropagationError, lpl_gradient, lpl_loss, optimize_mask, propagate
from gpl.synth import DatasetError, PlantedConfig, generate_planted, load_dataset, make_pu_split
from gpl.trainer import TrainConfig, TrainError, run_gpl

N = 4
LABELS = np.array([1, -1, 1, -1])
G = build_graph(N, [(0, 1), (1, 2), (2, 3)], np.arange(2 * N, dtype=float).reshape(N, 2), LABELS)
CFG = PropagationConfig(alpha=0.5, k_prop=2)


def _ragged_dataset(tmp_path, _):
    (tmp_path / "edges.tsv").write_text("0\t1\n")
    (tmp_path / "features.csv").write_text("1.0,2.0\n3.0\n")
    (tmp_path / "labels.txt").write_text("+1\n-1\n")
    return load_dataset(tmp_path)


def _nan_classifier(tmp_path, _):
    state = init_classifier(2, 3, seed=0)
    state.theta[:] = np.nan
    return loss_gradients(state, Workspace(gcn_operator(G, None), G.features, 3, [0], [1]))


def _nan_lpl_loss(tmp_path, monkeypatch):
    # lpl_loss clamps its logs, so no graph or anchor set makes it non-finite
    monkeypatch.setattr(gpl.trainer, "lpl_loss", lambda *args: float("nan"))
    g = generate_planted(PlantedConfig(n=40, pi_p=0.5, h=0.3, avg_degree=4.0, seed=0))
    run_gpl(g, make_pu_split(g, 0.5, seed=0), TrainConfig(outer_epochs=1, k_inner=1, clf_steps_per_epoch=1,
                                                          warmup_steps=1))


# name -> (error, message, call(tmp_path, monkeypatch))
CASES = {
    "build_graph-label_shape": (GraphError, "label vector has shape (3,), expected (4,)",
                                lambda *_: build_graph(N, [], np.zeros((N, 1)), [1, -1, 1])),
    "build_graph-label_value": (GraphError, "label row 2: value 0 not in {+1, -1}",
                                lambda *_: build_graph(N, [], np.zeros((N, 1)), [1, -1, 0, 1])),
    "rewire-target_above_1": (GraphError, "target heterophily must lie in [0, 1]",
                              lambda *_: rewire_to_heterophily(G, 1.5, seed=0)),
    "rewire-no_edges": (GraphError, "no edges",
                        lambda *_: rewire_to_heterophily(build_graph(N, [], G.features, LABELS), 0.5, seed=0)),
    "generate_planted-empty_class": (GraphError, "both classes must be non-empty; adjust n or pi_p",
                                     lambda *_: generate_planted(PlantedConfig(n=3, pi_p=0.2))),
    "make_pu_split-rp_0": (DatasetError, "r_p must lie in (0, 1]", lambda *_: make_pu_split(G, 0.0, seed=0)),
    "load_dataset-ragged_rows": (DatasetError, "features.csv: ragged rows, widths [1, 2]", _ragged_dataset),
    "propagate-sizes_differ": (PropagationError, "operator and belief dimensions disagree",
                               lambda *_: propagate(propagation_operator(G, None), np.zeros((N + 1, 2)), CFG)),
    "optimize_mask-no_steps": (PropagationError, "steps must be >= 1",
                               lambda *_: optimize_mask(G, init_mask(G), CFG, [0], [1], steps=0, lr=0.1)),
    "optimize_mask-negative_lr": (PropagationError, "lr must be >= 0",
                                  lambda *_: optimize_mask(G, init_mask(G), CFG, [0], [1], steps=1, lr=-0.1)),
    "optimize_mask-nan_start": (PropagationError, "non-finite loss at initialization",
                                lambda *_: optimize_mask(G, EdgeMask(np.full(G.m, np.nan)), CFG, [0], [1],
                                                         steps=1, lr=0.1)),
    "lpl_gradient-too_few_rows": (PropagationError,
                                  "belief states must be 4 x 2 on a graph of 4 nodes, got shape (3, 2)",
                                  lambda *_: lpl_gradient(G, init_mask(G), [np.full((N - 1, 2), 0.5)] * 3, CFG,
                                                          [0], [1])),
    "lpl_gradient-three_columns": (PropagationError,
                                   "belief states must be 4 x 2 on a graph of 4 nodes, got shape (4, 3)",
                                   lambda *_: lpl_gradient(G, init_mask(G), [np.full((N, 3), 0.5)] * 3, CFG,
                                                           [0], [1])),
    "lpl_loss-one_dimensional": (PropagationError, "beliefs must be n x 2, got shape (8,)",
                                 lambda *_: lpl_loss(np.full(8, 0.5), [0], [1])),
    "lpl_loss-three_columns": (PropagationError, "beliefs must be n x 2, got shape (8, 3)",
                               lambda *_: lpl_loss(np.full((8, 3), 0.5), [0], [1])),
    "dpn_distance-rows": (ValueError, "embeddings have 3 rows but the graph has 4 nodes",
                          lambda *_: dpn_distance(np.zeros((N - 1, 2)), G, propagation_operator(G, None))),
    "check_aggregation_contraction-rows": (ValueError, "embeddings have 3 rows but the graph has 4 nodes",
                                           lambda *_: check_aggregation_contraction(G, None, np.zeros(N - 1))),
    "loss_gradients-nan_loss": (ClassifierError, "non-finite classification loss", _nan_classifier),
    "backward_and_step-negative_lr": (ClassifierError, "lr must be >= 0",
                                      lambda *_: backward_and_step(
                                          init_classifier(2, 3, seed=0),
                                          Workspace(gcn_operator(G, None), G.features, 3, [0], [1]), -0.1)),
    "select_top-pi_hat_above_1": (ClassifierError, "pi_hat must lie in [0, 1]",
                                  lambda *_: select_top([0, 1], np.zeros(N), 1.5)),
    "run_gpl-nan_lpl_loss": (TrainError, "non-finite lpl_loss at epoch 1", _nan_lpl_loss),
}


@pytest.mark.parametrize("name", CASES)
def test_check_raises_the_module_error(name, tmp_path, monkeypatch):
    error, message, call = CASES[name]
    with pytest.raises(ValueError) as info:
        call(tmp_path, monkeypatch)
    assert type(info.value) is error
    assert re.search(re.escape(message) + "$", str(info.value))


def test_f1_is_zero_with_no_positives_predicted_or_true():
    assert f1_score([-1, -1, 1], [-1, -1, 1], [0, 1]) == 0.0

"""Positive-unlabeled node classification on graphs with learnable edge
masks, belief propagation, and score-based class-prior estimation."""

from .cpe import PriorEstimate, PriorEstimationError, estimate_prior, prior_error
from .gnn import (
    ClassifierError,
    ClassifierState,
    SelectionResult,
    Workspace,
    backward_and_step,
    forward,
    init_classifier,
    loss_gradients,
    predict_labels,
    pu_loss,
    save_checkpoint,
    select_top,
)
from .graph import (
    EdgeMask,
    GraphError,
    SparseGraph,
    build_graph,
    gcn_operator,
    heterophily_ratio,
    init_mask,
    propagation_operator,
    rewire_to_heterophily,
)
from .metrics import (
    check_aggregation_contraction,
    check_influence_sum,
    dpn_distance,
    edge_weight_means,
    f1_score,
    heterophily_influence,
    irreducibility_diagnostic,
    run_validation_suite,
)
from .propagation import (
    PropagationConfig,
    PropagationError,
    init_beliefs,
    lpl_gradient,
    lpl_loss,
    optimize_mask,
    propagate,
)
from .synth import (
    DatasetError,
    PlantedConfig,
    PUSplit,
    binarize_labels,
    generate_planted,
    load_dataset,
    make_pu_split,
    save_dataset,
)
from .trainer import (
    TrainConfig,
    TrainError,
    TrainTrace,
    TraceRow,
    run_baseline,
    run_gpl,
    trace_to_csv,
)

__version__ = "0.1.0"

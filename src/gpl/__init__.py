"""Positive-unlabeled node classification on graphs with learnable edge
masks, belief propagation, and score-based class-prior estimation."""

# perfbench's test_tracer_patches_every_binding_and_restores_it lists the package as a holder of it
from .graph import propagation_operator  # noqa: F401

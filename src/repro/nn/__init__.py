"""Numpy neural-network substrate: layers, models, optimisers, distributions."""

from repro.nn.layers import ACTIVATIONS, Dense, ReLU, Tanh
from repro.nn.model import ActorCriticMLP, orthogonal
from repro.nn.optim import Adam, Optimizer, clip_gradients
from repro.nn.distributions import (
    Categorical,
    MultiCategorical,
    log_softmax,
    masked_logits,
    softmax,
)
from repro.nn.checkpoints import (
    TrainingCheckpoint,
    flatten_parameters,
    load_checkpoint,
    load_training_checkpoint,
    parameter_spec,
    save_checkpoint,
    unflatten_parameters,
)

__all__ = [
    "ACTIVATIONS",
    "Dense",
    "ReLU",
    "Tanh",
    "ActorCriticMLP",
    "Adam",
    "Optimizer",
    "clip_gradients",
    "Categorical",
    "MultiCategorical",
    "log_softmax",
    "masked_logits",
    "softmax",
    "TrainingCheckpoint",
    "flatten_parameters",
    "load_checkpoint",
    "load_training_checkpoint",
    "parameter_spec",
    "save_checkpoint",
    "unflatten_parameters",
    "orthogonal",
]

"""Checkpointing and flat-array parameter serialization.

Two related services live here:

* **Flat weight snapshots** — :func:`parameter_spec`,
  :func:`flatten_parameters` and :func:`unflatten_parameters` pack a named
  parameter dict into a single contiguous ``float64`` vector (and back).
  It is the layout of a model's own ``flat`` buffer, which the actor/learner
  trainer broadcasts to rollout workers: one array pickles far cheaper than
  a dict of many small ones, and each side knows the spec from its
  (identical) architecture.

* **Checkpoint files** — :func:`save_checkpoint` /
  :func:`load_checkpoint` persist a model as ``.npz``.  Passing the
  optimiser (and an optional ``trainer_state`` dict) also captures learner
  state so interrupted training can resume exactly;
  :func:`load_training_checkpoint` restores the full bundle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError
from repro.nn.layers import ParameterSpec, parameter_views
from repro.nn.model import ActorCriticMLP
from repro.nn.optim import Optimizer


# --------------------------------------------------------------------------- #
# Flat-array parameter serialization (weight broadcast)
# --------------------------------------------------------------------------- #

def parameter_spec(params: Dict[str, np.ndarray]) -> ParameterSpec:
    """The canonical (sorted-by-name) layout of a flat parameter vector."""
    return [(name, tuple(params[name].shape)) for name in sorted(params)]


def flatten_parameters(params: Dict[str, np.ndarray]) -> np.ndarray:
    """Pack named parameters into one contiguous float64 vector.

    The layout follows :func:`parameter_spec` (names sorted), so any holder
    of an identically-shaped parameter dict can unpack the vector without
    transmitting the spec alongside it.
    """
    spec = parameter_spec(params)
    if not spec:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(
        [np.asarray(params[name], dtype=np.float64).ravel() for name, _ in spec]
    )


def unflatten_parameters(flat: np.ndarray,
                         spec: ParameterSpec) -> Dict[str, np.ndarray]:
    """Unpack a flat vector produced by :func:`flatten_parameters`."""
    flat = np.asarray(flat, dtype=np.float64)
    expected = sum(int(np.prod(shape, dtype=np.int64)) for _, shape in spec)
    if flat.size != expected:
        raise CheckpointError(
            f"flat parameter vector has {flat.size} values, spec needs {expected}"
        )
    return {name: view.copy()
            for name, view in parameter_views(flat, spec).items()}


# --------------------------------------------------------------------------- #
# Checkpoint files
# --------------------------------------------------------------------------- #

@dataclass
class TrainingCheckpoint:
    """A fully restored checkpoint bundle."""

    model: ActorCriticMLP
    #: Optimiser state as produced by ``Optimizer.state_dict`` (or None).
    optimizer_state: Optional[Dict] = None
    #: Arbitrary JSON-serialisable trainer state (or None).
    trainer_state: Optional[Dict] = None

    def restore_optimizer(self, optimizer: Optimizer) -> Optimizer:
        """Load the saved optimiser state into ``optimizer`` and return it."""
        if self.optimizer_state is not None:
            optimizer.load_state_dict(self.optimizer_state)
        return optimizer


def _encode_json(payload: Dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _decode_json(array: np.ndarray) -> Dict:
    return json.loads(bytes(array).decode())


def save_checkpoint(model: ActorCriticMLP, path: Union[str, Path],
                    optimizer: Optional[Optimizer] = None,
                    trainer_state: Optional[Dict] = None) -> None:
    """Save a model — and optionally full learner state — to one ``.npz``.

    With only ``model`` given this produces the historical model-only
    checkpoint.  Passing ``optimizer`` captures its ``state_dict`` (moment
    arrays and step counters) and ``trainer_state`` may carry any
    JSON-serialisable driver state (timestep counters, RNG states, best-tree
    records); both are restored by :func:`load_training_checkpoint`.
    """
    path = Path(path)
    params = model.parameters()
    arrays = {f"param::{name}": value for name, value in params.items()}
    arrays["__config__"] = _encode_json(model.clone_config())
    if optimizer is not None:
        opt_meta: Dict[str, object] = {"groups": []}
        for key, value in optimizer.state_dict().items():
            if isinstance(value, dict):
                opt_meta["groups"].append(key)
                for name, array in value.items():
                    arrays[f"opt::{key}::{name}"] = np.asarray(array)
            else:
                opt_meta[key] = value
        arrays["__optimizer__"] = _encode_json(opt_meta)
    if trainer_state is not None:
        arrays["__trainer__"] = _encode_json(trainer_state)
    try:
        np.savez(path, **arrays)
    except OSError as exc:
        raise CheckpointError(f"could not write checkpoint to {path}: {exc}") from exc


def _load_npz(path: Union[str, Path]):
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        return path, np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"could not read checkpoint {path}: {exc}") from exc


def _model_from_npz(path: Path, data) -> ActorCriticMLP:
    if "__config__" not in data:
        raise CheckpointError(f"{path} is not a repro checkpoint (missing config)")
    config = _decode_json(data["__config__"])
    model = ActorCriticMLP.allocate(
        obs_size=config["obs_size"],
        action_sizes=config["action_sizes"],
        hidden_sizes=config["hidden_sizes"],
        activation=config["activation"],
    )
    params: Dict[str, np.ndarray] = {}
    for key in data.files:
        if key.startswith("param::"):
            params[key[len("param::"):]] = data[key]
    model.load_parameters(params)
    return model


def load_checkpoint(path: Union[str, Path]) -> ActorCriticMLP:
    """Rebuild a model (architecture + weights) from a checkpoint file."""
    path, data = _load_npz(path)
    return _model_from_npz(path, data)


def load_training_checkpoint(path: Union[str, Path]) -> TrainingCheckpoint:
    """Restore model plus any optimiser/trainer state stored alongside it."""
    path, data = _load_npz(path)
    model = _model_from_npz(path, data)
    optimizer_state: Optional[Dict] = None
    if "__optimizer__" in data.files:
        opt_meta = _decode_json(data["__optimizer__"])
        groups = opt_meta.pop("groups", [])
        optimizer_state = dict(opt_meta)
        for key in groups:
            prefix = f"opt::{key}::"
            optimizer_state[key] = {
                name[len(prefix):]: data[name]
                for name in data.files if name.startswith(prefix)
            }
    trainer_state: Optional[Dict] = None
    if "__trainer__" in data.files:
        trainer_state = _decode_json(data["__trainer__"])
    return TrainingCheckpoint(
        model=model,
        optimizer_state=optimizer_state,
        trainer_state=trainer_state,
    )

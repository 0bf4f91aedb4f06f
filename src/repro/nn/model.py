"""Actor-critic MLP: shared tanh trunk with policy and value heads.

This matches Appendix B of the paper: a fully connected network with hidden
layers ``[512, 512]``, tanh nonlinearity, and weight sharing between the
policy parameters θ and the value parameters θ_v (the two heads read the same
trunk output).

Every parameter lives in one contiguous ``float64`` vector, ``flat``, and
every gradient in another, ``flat_grad``, both in ``parameter_spec`` order;
each layer's weight, bias and gradients are views into them.  ``flat`` is
what the trainer broadcasts and what the optimiser updates in place.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.layers import ACTIVATIONS, Dense, parameter_views


def orthogonal(shape: tuple, rng: np.random.Generator,
               gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation, commonly used for policy-gradient networks."""
    rows, cols = shape
    flat = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(flat)
    q = q[:rows, :cols] if rows >= cols else q.T[:rows, :cols]
    return (gain * q).astype(np.float64)


class ActorCriticMLP:
    """A shared-trunk actor-critic network.

    Args:
        obs_size: size of the flat observation vector.
        action_sizes: number of categories for each action component (the
            NeuroCuts action is a tuple of two categoricals, so this is a
            2-element sequence).
        hidden_sizes: trunk layer widths (default [512, 512] as in the paper).
        activation: "tanh" (paper default) or "relu".
        seed: RNG seed for weight initialisation.
    """

    def __init__(
        self,
        obs_size: int,
        action_sizes: Sequence[int],
        hidden_sizes: Sequence[int] = (512, 512),
        activation: str = "tanh",
        seed: int = 0,
    ) -> None:
        self._allocate(obs_size, action_sizes, hidden_sizes, activation)
        rng = np.random.default_rng(seed)
        gains = [np.sqrt(2.0)] * len(self._trunk) + [0.01, 1.0]
        for layer, gain in zip([*self._trunk, self._policy_head,
                                self._value_head], gains):
            layer.weight[...] = orthogonal(layer.weight.shape, rng, gain=gain)

    @classmethod
    def allocate(cls, obs_size: int, action_sizes: Sequence[int],
                 hidden_sizes: Sequence[int] = (512, 512),
                 activation: str = "tanh") -> "ActorCriticMLP":
        """The same architecture with every parameter zero, for a holder
        that loads its weights before use (a rollout replica, a
        checkpoint)."""
        model = cls.__new__(cls)
        model._allocate(obs_size, action_sizes, hidden_sizes, activation)
        return model

    def _allocate(self, obs_size: int, action_sizes: Sequence[int],
                  hidden_sizes: Sequence[int], activation: str) -> None:
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.obs_size = obs_size
        self.action_sizes = tuple(int(a) for a in action_sizes)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.activation_name = activation

        widths = (obs_size, *self.hidden_sizes)
        shapes = {f"trunk{i}": widths[i:i + 2] for i in range(len(widths) - 1)}
        shapes.update(policy=(widths[-1], sum(self.action_sizes)),
                      value=(widths[-1], 1))
        #: The layout of ``flat`` and ``flat_grad`` (sorted names).
        self.spec = sorted([(f"{n}.weight", tuple(s)) for n, s in shapes.items()]
                           + [(f"{n}.bias", (s[1],)) for n, s in shapes.items()])
        self.flat = np.zeros(sum((i + 1) * o for i, o in shapes.values()))
        self.flat_grad = np.zeros_like(self.flat)
        self._params = parameter_views(self.flat, self.spec)
        grads = parameter_views(self.flat_grad, self.spec)
        self._trunk = [Dense(f"trunk{i}", self._params, grads)
                       for i in range(len(self.hidden_sizes))]
        self._acts = [ACTIVATIONS[activation]() for _ in self._trunk]
        self._policy_head = Dense("policy", self._params, grads)
        self._value_head = Dense("value", self._params, grads)
        # In the order backward fills them: the gradient norm is summed in it.
        self._grads = {name: grads[name] for layer in [
            self._policy_head, self._value_head, *reversed(self._trunk)]
            for name in (f"{layer.name}.weight", f"{layer.name}.bias")}

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #

    def forward(self, obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compute (logits, values) for a batch of observations.

        Returns:
            logits with shape ``(batch, sum(action_sizes))`` and values with
            shape ``(batch,)``.
        """
        x = np.asarray(obs, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        for layer, act in zip(self._trunk, self._acts):
            x = act.forward(layer.forward(x))
        logits = self._policy_head.forward(x)
        values = self._value_head.forward(x)[:, 0]
        return logits, values

    def backward(self, grad_logits: np.ndarray,
                 grad_values: np.ndarray) -> Dict[str, np.ndarray]:
        """Backpropagate head gradients into ``flat_grad``.

        Must be called right after :meth:`forward` on the same batch.
        Returns the named gradient views into ``flat_grad``, in the order
        the layers fill them; the next call overwrites them.
        """
        grad_from_policy = self._policy_head.backward(grad_logits)
        grad_from_value = self._value_head.backward(
            np.asarray(grad_values, dtype=np.float64).reshape(-1, 1)
        )
        grad_trunk = grad_from_policy + grad_from_value
        for layer, act in zip(reversed(self._trunk), reversed(self._acts)):
            grad_trunk = layer.backward(act.backward(grad_trunk))
        return self._grads

    # ------------------------------------------------------------------ #
    # Parameter management
    # ------------------------------------------------------------------ #

    def parameters(self) -> Dict[str, np.ndarray]:
        """All named parameters: views into ``flat`` (writing them updates
        the network)."""
        return dict(self._params)

    def load_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Copy parameters produced by :meth:`parameters` (e.g. a
        checkpoint) into ``flat``."""
        for name, view in self._params.items():
            view[...] = params[name]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return self.flat.size

    def split_logits(self, logits: np.ndarray) -> List[np.ndarray]:
        """Split the flat logits into one block per action component."""
        blocks = []
        start = 0
        for size in self.action_sizes:
            blocks.append(logits[:, start:start + size])
            start += size
        return blocks

    def clone_config(self) -> Dict:
        """Constructor arguments needed to rebuild an identical architecture."""
        return {
            "obs_size": self.obs_size,
            "action_sizes": list(self.action_sizes),
            "hidden_sizes": list(self.hidden_sizes),
            "activation": self.activation_name,
        }

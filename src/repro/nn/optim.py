"""Gradient-descent optimisers over one flat parameter vector.

A model keeps every parameter in one contiguous vector and every gradient in
another (:class:`~repro.nn.model.ActorCriticMLP` ``flat`` / ``flat_grad``),
so an optimiser step is a handful of whole-vector operations that update the
parameters in place.  Optimiser state is saved per parameter name: views of a
copy of the flat state, laid out by the model's ``spec``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.nn.layers import ParameterSpec, parameter_views


class Optimizer:
    """Base class: applies a flat gradient to a flat parameter vector."""

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place using ``grads``."""
        raise NotImplementedError

    def state_dict(self) -> Dict:
        """Serialisable optimiser state (for checkpointing)."""
        return {}

    def load_state_dict(self, state: Dict) -> None:
        """Restore optimiser state."""


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) over vectors laid out by ``spec``.

    Each element goes through the textbook per-array formulas, operation by
    operation in the same order, so it gets the same bits; only the
    temporaries are preallocated.
    """

    def __init__(self, spec: ParameterSpec, learning_rate: float = 5e-5,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8) -> None:
        self.spec = list(spec)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        size = sum(int(np.prod(shape, dtype=np.int64)) for _, shape in spec)
        # Moments, then the two temporaries of a step.
        self._m, self._v, self._step, self._denom = np.zeros((4, size))
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._t += 1
        m, v, step, denom = self._m, self._v, self._step, self._denom
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grads, 1 - self.beta1, out=step)
        m += step
        # v = beta2 * v + (1 - beta2) * grad ** 2
        np.square(grads, out=denom)
        denom *= 1 - self.beta2
        v *= self.beta2
        v += denom
        # params -= lr * m_hat / (sqrt(v_hat) + epsilon)
        np.divide(m, 1 - self.beta1 ** self._t, out=step)
        step *= self.learning_rate
        np.divide(v, 1 - self.beta2 ** self._t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        step /= denom
        params -= step

    def state_dict(self) -> Dict:
        return {
            "t": self._t,
            "m": parameter_views(self._m.copy(), self.spec),
            "v": parameter_views(self._v.copy(), self.spec),
        }

    def load_state_dict(self, state: Dict) -> None:
        self._t = state.get("t", 0)
        for flat, key in ((self._m, "m"), (self._v, "v")):
            flat.fill(0.0)
            views = parameter_views(flat, self.spec)
            for name, array in state.get(key, {}).items():
                views[name][...] = array


def clip_gradients(flat_grad: np.ndarray, views: Iterable[np.ndarray],
                   max_norm: Optional[float]) -> float:
    """Globally clip a flat gradient to a maximum L2 norm, in place.

    ``views`` cover ``flat_grad``; the norm is summed view by view in their
    order (``np.sum(g ** 2)`` each, without its Python wrapper).  Returns
    the norm after clipping (no clipping if ``max_norm`` is None).
    """
    total = float(np.sqrt(sum(float(np.add.reduce(np.square(g), axis=None))
                              for g in views)))
    if max_norm is None or total <= max_norm or total == 0.0:
        return total
    flat_grad *= max_norm / total
    return max_norm

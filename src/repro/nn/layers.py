"""Dense layers and activations with explicit forward/backward passes.

The network sizes in the paper (two 512-unit tanh layers over a 278-bit
observation) are small enough that a straightforward numpy implementation
with hand-written backpropagation is fast and keeps the whole RL stack free
of external deep-learning dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: (name, shape) pairs describing the layout of a flat parameter vector.
ParameterSpec = List[Tuple[str, Tuple[int, ...]]]


def parameter_views(flat: np.ndarray,
                    spec: ParameterSpec) -> Dict[str, np.ndarray]:
    """Named views into ``flat``, laid out back to back in ``spec`` order."""
    views: Dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape, dtype=np.int64))
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


class Dense:
    """A fully connected layer ``y = x @ W + b``.

    ``weight`` / ``bias`` are the ``{name}.weight`` / ``{name}.bias``
    entries of ``params``, and ``grad_weight`` / ``grad_bias`` those of
    ``grads``: views into flat buffers that the layer writes in place and
    never rebinds, so an optimiser that updates the buffer updates the layer.
    """

    def __init__(self, name: str, params: Dict[str, np.ndarray],
                 grads: Dict[str, np.ndarray]) -> None:
        self.name = name
        self.weight, self.bias = params[f"{name}.weight"], params[f"{name}.bias"]
        self.grad_weight = grads[f"{name}.weight"]
        self.grad_bias = grads[f"{name}.bias"]
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches the input for the subsequent backward pass."""
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward pass: write the parameter grads in place, return the
        input grad."""
        if self._input is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._input.T, grad_output, out=self.grad_weight)
        np.sum(grad_output, axis=0, out=self.grad_bias)
        return grad_output @ self.weight.T


class Tanh:
    """Elementwise tanh activation (the paper's nonlinearity)."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output ** 2)


class ReLU:
    """Elementwise ReLU activation (available for ablations)."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


ACTIVATIONS = {"tanh": Tanh, "relu": ReLU}

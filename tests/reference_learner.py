"""The learner's textbook per-array formulas: the oracle the flat step is
held to.

:class:`Adam` and :func:`clip_gradients` work on named parameter and
gradient dicts, one array at a time, allocating every intermediate.
:mod:`repro.nn.optim` does the same arithmetic over one flat vector with
preallocated temporaries; ``tests/test_flat_learner.py`` asserts the two
give the same bits.
"""

import numpy as np


class Adam:
    """Adam (Kingma & Ba, 2015) over named arrays, state kept per name."""

    def __init__(self, learning_rate=5e-5, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads):
        """Update ``params`` (a dict of arrays) in place from ``grads``."""
        self.t += 1
        for name, grad in grads.items():
            m = self.m.get(name, np.zeros_like(params[name]))
            v = self.v.get(name, np.zeros_like(params[name]))
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * (grad ** 2)
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat)
                                                          + self.epsilon)


def clip_gradients(grads, max_norm):
    """``(clipped grads, global L2 norm before clipping)``; the norm is
    summed array by array in the dict's order."""
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
    if max_norm is None or total <= max_norm or total == 0.0:
        return grads, float(total)
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}, float(total)

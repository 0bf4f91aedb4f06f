"""Categorical action distributions with masking and analytic gradients.

The PPO trainer needs, for each distribution: sampling, log-probability,
entropy, and the gradients of log-probability and entropy with respect to the
logits.  Implementing those analytically keeps the numpy backward pass simple
and exact:

* ``d log p(a) / d z = onehot(a) - softmax(z)``
* ``d H / d z_i = -p_i (log p_i + H)``

Invalid (masked) actions are handled by adding a large negative constant to
their logits, so their probability — and therefore their gradient — is zero.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Logit offset applied to masked-out actions.
MASK_LOGIT = -1e9


def masked_logits(logits: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Apply an action mask (1 = allowed, 0 = forbidden) to logits."""
    if mask is None:
        return logits
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask, logits, MASK_LOGIT)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    return np.exp(log_softmax(logits))


class Categorical:
    """A batch of categorical distributions parameterised by logits.

    ``log_probs``, ``probs`` and the entropy's terms are worked out on
    first use: sampling reads only the logits, so a caller that samples one
    action and scores it never pays for the probabilities, and a PPO step
    that reads both the entropy and its gradient pays for the entropy once.
    """

    def __init__(self, logits: np.ndarray,
                 mask: Optional[np.ndarray] = None) -> None:
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim == 1:
            logits = logits[None, :]
        if mask is not None:
            mask = np.asarray(mask)
            if mask.ndim == 1:
                mask = mask[None, :]
        self.logits = masked_logits(logits, mask)
        self._log_probs: Optional[np.ndarray] = None
        self._probs: Optional[np.ndarray] = None
        self._entropy_terms: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def log_probs(self) -> np.ndarray:
        """Log-probabilities of every action, per batch row."""
        if self._log_probs is None:
            self._log_probs = log_softmax(self.logits)
        return self._log_probs

    @property
    def probs(self) -> np.ndarray:
        """Probabilities of every action, per batch row."""
        if self._probs is None:
            self._probs = np.exp(self.log_probs)
        return self._probs

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    @property
    def num_actions(self) -> int:
        return self.logits.shape[1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one action per batch row using the Gumbel-max trick."""
        gumbel = rng.gumbel(size=self.logits.shape)
        return np.argmax(self.logits + gumbel, axis=-1)

    def mode(self) -> np.ndarray:
        """Most probable action per batch row."""
        return np.argmax(self.logits, axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        """Log probability of the given actions."""
        actions = np.asarray(actions, dtype=np.int64)
        return self.log_probs[np.arange(self.batch_size), actions]

    def _entropy_pass(self) -> Tuple[np.ndarray, np.ndarray]:
        """The log-probabilities with masked-out actions zeroed, and the
        entropy per batch row: one pass, shared by :meth:`entropy` and
        :meth:`entropy_grad`."""
        if self._entropy_terms is None:
            safe_log = np.where(self.probs > 0, self.log_probs, 0.0)
            self._entropy_terms = (safe_log,
                                   -(self.probs * safe_log).sum(axis=-1))
        return self._entropy_terms

    def entropy(self) -> np.ndarray:
        """Entropy per batch row, ignoring masked-out actions."""
        return self._entropy_pass()[1]

    def log_prob_grad(self, actions: np.ndarray) -> np.ndarray:
        """Gradient of log p(action) with respect to the logits."""
        actions = np.asarray(actions, dtype=np.int64)
        grad = -self.probs.copy()
        grad[np.arange(self.batch_size), actions] += 1.0
        return grad

    def entropy_grad(self) -> np.ndarray:
        """Gradient of the entropy with respect to the logits."""
        safe_log, entropy = self._entropy_pass()
        return -self.probs * (safe_log + entropy[:, None])

    def kl(self, other: "Categorical") -> np.ndarray:
        """KL divergence ``KL(self || other)`` per batch row."""
        safe = np.where(self.probs > 0, self.log_probs - other.log_probs, 0.0)
        return (self.probs * safe).sum(axis=-1)


class MultiCategorical:
    """A tuple of independent categorical components (the NeuroCuts action).

    The flat logits vector is split into per-component blocks; log-prob and
    entropy are sums over components and gradients are concatenated back in
    the flat layout the model produces.
    """

    def __init__(self, flat_logits: np.ndarray, sizes: Sequence[int],
                 masks: Optional[Sequence[Optional[np.ndarray]]] = None) -> None:
        flat_logits = np.asarray(flat_logits, dtype=np.float64)
        if flat_logits.ndim == 1:
            flat_logits = flat_logits[None, :]
        self.sizes = tuple(int(s) for s in sizes)
        if flat_logits.shape[1] != sum(self.sizes):
            raise ValueError(
                f"flat logits of width {flat_logits.shape[1]} do not match "
                f"component sizes {self.sizes}"
            )
        masks = masks or [None] * len(self.sizes)
        self.components: List[Categorical] = []
        start = 0
        for size, mask in zip(self.sizes, masks):
            block = flat_logits[:, start:start + size]
            self.components.append(Categorical(block, mask=mask))
            start += size

    @property
    def batch_size(self) -> int:
        return self.components[0].batch_size

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample a (batch, num_components) integer action array."""
        actions = np.empty((self.batch_size, len(self.components)),
                           dtype=np.int64)
        for i, component in enumerate(self.components):
            actions[:, i] = component.sample(rng)
        return actions

    def mode(self) -> np.ndarray:
        return np.stack([c.mode() for c in self.components], axis=1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.int64)
        return sum(
            c.log_prob(actions[:, i]) for i, c in enumerate(self.components)
        )

    def entropy(self) -> np.ndarray:
        return sum(c.entropy() for c in self.components)

    def log_prob_grad(self, actions: np.ndarray) -> np.ndarray:
        """Gradient of total log-prob w.r.t. the flat logits."""
        actions = np.asarray(actions, dtype=np.int64)
        grads = [
            c.log_prob_grad(actions[:, i]) for i, c in enumerate(self.components)
        ]
        return np.concatenate(grads, axis=1)

    def entropy_grad(self) -> np.ndarray:
        """Gradient of total entropy w.r.t. the flat logits."""
        return np.concatenate([c.entropy_grad() for c in self.components], axis=1)

    def kl(self, other: "MultiCategorical") -> np.ndarray:
        return sum(c.kl(o) for c, o in zip(self.components, other.components))

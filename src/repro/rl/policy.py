"""Policy wrapper: sampling actions from the actor-critic model.

A :class:`Policy` glues the model, the action space, and the masked
multi-categorical distribution together and exposes the two operations the
environment side needs: *act* (sample an action, keeping the bookkeeping PPO
requires) and *act_deterministic* (take the mode, used when extracting the
best tree from a trained policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.distributions import MASK_LOGIT, MultiCategorical
from repro.nn.model import ActorCriticMLP
from repro.rl.spaces import TupleSpace


@dataclass(frozen=True)
class PolicyDecision:
    """One sampled decision with everything PPO needs to learn from it."""

    action: Tuple[int, ...]
    log_prob: float
    value: float
    masks: Tuple[np.ndarray, ...]


class Policy:
    """A stochastic policy over a tuple action space."""

    def __init__(self, model: ActorCriticMLP, action_space: TupleSpace,
                 seed: int = 0) -> None:
        if tuple(model.action_sizes) != action_space.sizes:
            raise ValueError(
                f"model action sizes {model.action_sizes} do not match the "
                f"action space {action_space.sizes}"
            )
        self.model = model
        self.action_space = action_space
        self._rng = np.random.default_rng(seed)

    def reseed(self, seed) -> None:
        """Reset the sampling RNG from a seed (int or SeedSequence).

        Rollout workers reseed before every shard so a shard's trajectory is
        a pure function of (weights, seed) — the property that makes serial
        and process-pool execution byte-identical.
        """
        self._rng = np.random.default_rng(seed)

    def act(self, obs: np.ndarray,
            masks: Optional[Sequence[np.ndarray]] = None) -> PolicyDecision:
        """Sample an action for one observation.

        Each component is sampled straight from its masked slice of the
        logits row, with the Gumbel draws and log-softmax arithmetic of
        :class:`~repro.nn.distributions.MultiCategorical`, so the action
        and log-probability are bit-identical to its ``sample`` and
        ``log_prob``.
        """
        logits, values = self.model.forward(obs[None, :])
        if masks is None:
            masks = [np.ones(size, dtype=bool)
                     for size in self.model.action_sizes]
        masks = tuple(np.asarray(m, dtype=bool) for m in masks)
        action, logp, start = [], 0.0, 0
        for size, mask in zip(self.model.action_sizes, masks):
            row = np.where(mask, logits[0, start:start + size], MASK_LOGIT)
            action.append(int(np.argmax(row + self._rng.gumbel(size=size))))
            shifted = row - row.max()
            logp += shifted[action[-1]] - np.log(np.exp(shifted).sum())
            start += size
        return PolicyDecision(tuple(action), float(logp), float(values[0]),
                              masks)

    def act_deterministic(self, obs: np.ndarray,
                          masks: Optional[Sequence[np.ndarray]] = None
                          ) -> Tuple[int, ...]:
        """Take the most probable action (greedy decoding of the policy)."""
        logits, _ = self.model.forward(obs[None, :])
        dist = MultiCategorical(
            logits, self.model.action_sizes,
            masks=[m[None, :] for m in masks] if masks is not None else None,
        )
        return tuple(int(a) for a in dist.mode()[0])

    def value(self, obs: np.ndarray) -> float:
        """Value estimate for one observation."""
        _, values = self.model.forward(obs[None, :])
        return float(values[0])

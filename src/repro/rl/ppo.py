"""Proximal Policy Optimization over numpy actor-critic models.

This is the learner half of the NeuroCuts training loop (Section 5.1 /
Appendix B): an actor-critic loss with a clipped surrogate objective, entropy
regularisation, a clipped value-function loss, and a KL-based early-stop
across the SGD epochs of each batch.  Gradients are computed analytically
through :class:`~repro.nn.distributions.MultiCategorical` and the MLP's
hand-written backward pass, which writes them into the model's flat gradient
vector; clipping and the optimiser step then work on whole vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.distributions import MultiCategorical
from repro.nn.model import ActorCriticMLP
from repro.nn.optim import Adam, Optimizer, clip_gradients
from repro.rl.advantages import normalize_advantages
from repro.rl.batch import SampleBatch


@dataclass
class PPOConfig:
    """Hyperparameters of the PPO learner (paper Appendix B defaults)."""

    learning_rate: float = 5e-5
    clip_param: float = 0.3
    vf_clip_param: float = 10.0
    vf_loss_coeff: float = 1.0
    entropy_coeff: float = 0.01
    kl_target: float = 0.01
    kl_coeff: float = 0.2
    num_sgd_iters: int = 30
    sgd_minibatch_size: int = 1000
    grad_clip: Optional[float] = 40.0
    normalize_advantages: bool = True

    def validate(self) -> None:
        """Sanity-check parameter ranges."""
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0 < self.clip_param < 1:
            raise ConfigError("clip_param must be in (0, 1)")
        if self.num_sgd_iters < 1:
            raise ConfigError("num_sgd_iters must be >= 1")
        if self.sgd_minibatch_size < 1:
            raise ConfigError("sgd_minibatch_size must be >= 1")
        if self.entropy_coeff < 0:
            raise ConfigError("entropy_coeff must be >= 0")


@dataclass
class PPOStats:
    """Diagnostics from one PPO update over a batch."""

    policy_loss: float
    value_loss: float
    entropy: float
    kl: float
    num_sgd_iters_run: int
    grad_norm: float


class PPOLearner:
    """Runs PPO updates of an actor-critic model from sample batches."""

    def __init__(self, model: ActorCriticMLP, config: Optional[PPOConfig] = None,
                 optimizer: Optional[Optimizer] = None, seed: int = 0) -> None:
        self.model = model
        self.config = config or PPOConfig()
        self.config.validate()
        self.optimizer = optimizer or Adam(model.spec,
                                           learning_rate=self.config.learning_rate)
        self._rng = np.random.default_rng(seed)
        self._kl_coeff = self.config.kl_coeff

    # ------------------------------------------------------------------ #
    # Loss and gradient computation for one minibatch
    # ------------------------------------------------------------------ #

    def _minibatch_update(self, batch: SampleBatch,
                          advantages: np.ndarray) -> Dict[str, float]:
        cfg = self.config
        logits, values = self.model.forward(batch.obs)
        dist = MultiCategorical(
            logits, self.model.action_sizes, masks=batch.action_masks
        )
        logp = dist.log_prob(batch.actions)
        entropy = dist.entropy()
        ratio = np.exp(np.clip(logp - batch.logp_old, -20.0, 20.0))

        # Clipped surrogate objective (to be maximised).
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1 - cfg.clip_param, 1 + cfg.clip_param) * advantages
        surrogate = np.minimum(unclipped, clipped)
        policy_loss = -float(surrogate.mean())

        # Value loss with error clipping (PPO vf_clip_param).
        vf_error = values - batch.returns
        vf_error_clipped = np.clip(vf_error, -cfg.vf_clip_param, cfg.vf_clip_param)
        value_loss = 0.5 * float((vf_error_clipped ** 2).mean())

        # Gradient of the total loss w.r.t. the flat logits.
        n = len(batch)
        use_unclipped = unclipped <= clipped
        dloss_dlogp = np.where(use_unclipped, -ratio * advantages, 0.0) / n
        dlogits = dist.log_prob_grad(batch.actions) * dloss_dlogp[:, None]
        dlogits -= cfg.entropy_coeff * dist.entropy_grad() / n

        # Gradient of the value loss w.r.t. the value output.
        within_clip = np.abs(vf_error) <= cfg.vf_clip_param
        dvalues = cfg.vf_loss_coeff * np.where(within_clip, vf_error_clipped, 0.0) / n

        grads = self.model.backward(dlogits, dvalues)
        grad_norm = clip_gradients(self.model.flat_grad, grads.values(),
                                   cfg.grad_clip)
        self.optimizer.step(self.model.flat, self.model.flat_grad)

        return {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": float(entropy.mean()),
            "grad_norm": grad_norm,
        }

    def _mean_kl(self, batch: SampleBatch) -> float:
        """KL between the behaviour policy log-probs and the current policy."""
        logits, _ = self.model.forward(batch.obs)
        dist = MultiCategorical(
            logits, self.model.action_sizes, masks=batch.action_masks
        )
        logp = dist.log_prob(batch.actions)
        # One-sample estimate of KL(old || new) per decision.
        return float(np.mean(batch.logp_old - logp))

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def update(self, batch: SampleBatch) -> PPOStats:
        """Run the configured number of SGD epochs over one sample batch."""
        cfg = self.config
        advantages_full = batch.advantages
        if cfg.normalize_advantages:
            advantages_full = normalize_advantages(advantages_full)

        last: Dict[str, float] = {
            "policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "grad_norm": 0.0
        }
        iters_run = 0
        for _ in range(cfg.num_sgd_iters):
            order = self._rng.permutation(len(batch))
            for start in range(0, len(batch), cfg.sgd_minibatch_size):
                indices = order[start:start + cfg.sgd_minibatch_size]
                minibatch = batch.take(indices)
                last = self._minibatch_update(minibatch, advantages_full[indices])
            iters_run += 1
            # Also the reported KL: the weights do not move after the last.
            kl = abs(self._mean_kl(batch))
            if kl > 1.5 * cfg.kl_target:
                break
        return PPOStats(
            policy_loss=last["policy_loss"],
            value_loss=last["value_loss"],
            entropy=last["entropy"],
            kl=kl,
            num_sgd_iters_run=iters_run,
            grad_norm=last["grad_norm"],
        )

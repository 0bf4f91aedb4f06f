"""NeuroCuts configuration (the hyperparameters of Table 1).

Defaults follow Appendix B of the paper.  The few scale knobs whose paper
values assume hours of AWS time (total timesteps, batch size, network width)
keep the paper defaults here but are overridden to smaller values by the
test-suite and benchmark fixtures; see DESIGN.md §2 for the substitution
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.exceptions import ConfigError
from repro.rl.ppo import PPOConfig

#: Allowed top-node partitioning modes (Table 1).
PARTITION_MODES: Tuple[str, ...] = ("none", "simple", "efficuts")

#: Allowed reward scaling functions (Algorithm 1, line 5).
REWARD_SCALING: Tuple[str, ...] = ("linear", "log")

#: Reward assignment modes: "subtree" is the paper's dense per-node scheme
#: (each decision is rewarded with its own subtree's objective); "root" is
#: the ablation where every decision receives only the whole-tree reward.
REWARD_MODES: Tuple[str, ...] = ("subtree", "root")

@dataclass
class NeuroCutsConfig:
    """All knobs of a NeuroCuts training run.

    Attributes mirror Table 1 of the paper:

    * ``time_space_coeff`` — the coefficient ``c`` trading classification
      time (c = 1) against memory footprint (c = 0).
    * ``partition_mode`` — top-node partitioning: ``"none"``, ``"simple"``
      (learned per-dimension coverage threshold) or ``"efficuts"``.
    * ``reward_scaling`` — ``"linear"`` (f(x) = x) or ``"log"`` (f(x) = log x).
    * ``max_timesteps_per_rollout`` — rollout truncation (Section 5.1).
    * ``max_tree_depth`` — depth truncation (Section 5.1).
    * ``max_timesteps_total`` — total environment steps to train for.
    * ``timesteps_per_batch`` — environment steps per PPO batch.
    * ``hidden_sizes`` / ``activation`` — the policy network (512×512 tanh).
    * ``leaf_threshold`` — rules per terminal leaf (shared with baselines).
    * ``partition_top_levels`` — tree levels at which partition actions stay
      unmasked (the paper prohibits partitioning at lower levels).

    Beyond Table 1, the actor/learner knob (the paper's Figure 7 scaling
    setup):

    * ``num_rollout_workers`` — how many rollout shards each PPO batch is
      scattered over (serial in-process for one, a persistent process pool
      otherwise; the trainer's ``rollout_backend`` argument overrides).
      Every batch is collected on the current weights.
    """

    time_space_coeff: float = 1.0
    partition_mode: str = "none"
    reward_scaling: str = "linear"
    reward_mode: str = "subtree"
    max_timesteps_per_rollout: int = 15000
    max_tree_depth: int = 100
    max_timesteps_total: int = 10_000_000
    timesteps_per_batch: int = 60_000
    hidden_sizes: Sequence[int] = (512, 512)
    activation: str = "tanh"
    learning_rate: float = 5e-5
    discount_factor: float = 1.0
    entropy_coeff: float = 0.01
    clip_param: float = 0.3
    vf_clip_param: float = 10.0
    kl_target: float = 0.01
    num_sgd_iters: int = 30
    sgd_minibatch_size: int = 1000
    leaf_threshold: int = 16
    partition_top_levels: int = 1
    efficuts_largeness_threshold: float = 0.5
    seed: int = 0
    #: Stop training early once this many rollouts produced no improvement.
    convergence_patience: Optional[int] = None
    #: Rollout shards per PPO batch (1 = classic single-process collection).
    num_rollout_workers: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any value is out of range."""
        if not 0.0 <= self.time_space_coeff <= 1.0:
            raise ConfigError("time_space_coeff must be within [0, 1]")
        if self.partition_mode not in PARTITION_MODES:
            raise ConfigError(
                f"partition_mode must be one of {PARTITION_MODES}, "
                f"got {self.partition_mode!r}"
            )
        if self.reward_scaling not in REWARD_SCALING:
            raise ConfigError(
                f"reward_scaling must be one of {REWARD_SCALING}, "
                f"got {self.reward_scaling!r}"
            )
        if self.reward_mode not in REWARD_MODES:
            raise ConfigError(
                f"reward_mode must be one of {REWARD_MODES}, "
                f"got {self.reward_mode!r}"
            )
        if self.max_timesteps_per_rollout < 1:
            raise ConfigError("max_timesteps_per_rollout must be >= 1")
        if self.max_tree_depth < 1:
            raise ConfigError("max_tree_depth must be >= 1")
        if self.leaf_threshold < 1:
            raise ConfigError("leaf_threshold must be >= 1")
        if self.timesteps_per_batch < 1:
            raise ConfigError("timesteps_per_batch must be >= 1")
        if self.max_timesteps_total < 1:
            raise ConfigError("max_timesteps_total must be >= 1")
        if self.partition_top_levels < 0:
            raise ConfigError("partition_top_levels must be >= 0")
        if not 0.0 < self.efficuts_largeness_threshold < 1.0:
            raise ConfigError("efficuts_largeness_threshold must be in (0, 1)")
        if self.num_rollout_workers < 1:
            raise ConfigError("num_rollout_workers must be >= 1")

    def ppo_config(self) -> PPOConfig:
        """The PPO learner configuration implied by this NeuroCuts config."""
        return PPOConfig(
            learning_rate=self.learning_rate,
            clip_param=self.clip_param,
            vf_clip_param=self.vf_clip_param,
            entropy_coeff=self.entropy_coeff,
            kl_target=self.kl_target,
            num_sgd_iters=self.num_sgd_iters,
            sgd_minibatch_size=self.sgd_minibatch_size,
        )

    @classmethod
    def fast_test_config(cls, **overrides) -> "NeuroCutsConfig":
        """A scaled-down configuration suitable for unit tests and CI benches."""
        defaults = dict(
            hidden_sizes=(64, 64),
            max_timesteps_total=4000,
            timesteps_per_batch=400,
            max_timesteps_per_rollout=300,
            max_tree_depth=30,
            num_sgd_iters=5,
            sgd_minibatch_size=128,
            learning_rate=3e-4,
        )
        defaults.update(overrides)
        return cls(**defaults)

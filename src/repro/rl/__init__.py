"""Reinforcement-learning substrate: spaces, batches, advantages, PPO."""

from repro.rl.spaces import Box, Discrete, TupleSpace
from repro.rl.batch import ExperienceBuilder, SampleBatch
from repro.rl.advantages import normalize_advantages
from repro.rl.ppo import PPOConfig, PPOLearner, PPOStats
from repro.rl.policy import Policy, PolicyDecision

__all__ = [
    "Box",
    "Discrete",
    "TupleSpace",
    "ExperienceBuilder",
    "SampleBatch",
    "normalize_advantages",
    "PPOConfig",
    "PPOLearner",
    "PPOStats",
    "Policy",
    "PolicyDecision",
]

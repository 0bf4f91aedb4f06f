"""Advantage normalisation.

NeuroCuts frames each node decision as a 1-step problem whose return is the
negated time/space objective of the subtree the action produced, so the
advantage is simply ``return − V(s)`` (:attr:`SampleBatch.advantages`);
PPO then normalises it here.
"""

from __future__ import annotations

import numpy as np


def normalize_advantages(advantages: np.ndarray, epsilon: float = 1e-8) -> np.ndarray:
    """Zero-mean, unit-variance normalisation (standard PPO practice)."""
    advantages = np.asarray(advantages, dtype=np.float64)
    std = advantages.std()
    if std < epsilon:
        return advantages - advantages.mean()
    return (advantages - advantages.mean()) / (std + epsilon)

"""Reward computation for NeuroCuts (Algorithm 1, lines 16–17).

The return assigned to the decision taken at node ``s`` is::

    R = -(c * f(Time(s)) + (1 - c) * f(Space(s) - d(c) * Floor(s)))

where ``Time(s)`` and ``Space(s)`` are the classification time and memory
footprint of the completed subtree rooted at ``s`` (Eqs. 1–4), ``c`` is the
time-space coefficient, and ``f`` is the reward scaling function (identity
or logarithm).  Rewards are computed only once the tree rollout is complete
— the "delayed reward" structure the paper highlights — and every recorded
1-step decision receives the reward of its own subtree, which is what makes
the per-node decisions align with the global objective (Eq. 5).

``Floor(s)`` is the irreducible cost of storing each of the node's rules
exactly once (``RULE_POINTER_BYTES * num_rules``).  No action can reduce
that floor — it is paid by every correct classifier, including a plain
linear scan — so charging it to a decision only injects the node's rule
count into the return as noise the value baseline cannot explain (the
observation encodes the node's box, not its rule list).  In the
space-optimised regime (``c -> 0``) — where no time term disciplines the
tree and the raw-space reward demonstrably fails to learn — the reward
therefore charges only the controllable *excess*: replication plus
structural bytes.  That keeps returns comparable across nodes at every
depth, ranks complete trees exactly as raw ``Space`` does at the root (the
floor is a per-rollout constant there), and is what makes memory actually
shrink as ``c`` approaches 0 (Figure 11).

Subtracting a constant floor also *amplifies* the space term's relative
spread, so applying it in mixed regimes would silently re-weight the
blended objective toward space (observed as Figure 10's time parity
breaking at ``c = 0.5``).  The floor discount ``d(c) = max(0, 1 - 2c)``
therefore fades the correction out linearly, reaching the paper's raw-space
reward by ``c = 0.5``: pure-space training gets the fix, blended training
keeps the paper's balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigError
from repro.tree.node import Node
from repro.tree.stats import RULE_POINTER_BYTES, subtree_costs
from repro.neurocuts.config import NeuroCutsConfig


def linear_scaling(value: float) -> float:
    """Identity reward scaling, f(x) = x."""
    return float(value)


def log_scaling(value: float) -> float:
    """Logarithmic reward scaling, f(x) = log(x); used when mixing objectives."""
    return math.log(max(1.0, float(value)))


SCALING_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "linear": linear_scaling,
    "log": log_scaling,
}


def floor_discount(coefficient: float) -> float:
    """How much of the rule-storage floor the space reward excludes.

    ``d(c) = max(0, 1 - 2c)``: full exclusion in the pure-space regime,
    linearly fading to the paper's raw-space reward by ``c = 0.5``.
    """
    return max(0.0, 1.0 - 2.0 * coefficient)


def space_excess(space: float, num_rules: int,
                 discount: float = 1.0) -> float:
    """The controllable part of a subtree's memory footprint.

    Subtracts ``discount`` times the irreducible ``RULE_POINTER_BYTES`` per
    rule of the subtree's root, clamping at 1 so logarithmic scaling stays
    defined.  ``discount = 1`` charges pure excess (the space-only regime);
    ``discount = 0`` charges raw space.
    """
    floor = RULE_POINTER_BYTES * max(0, num_rules)
    return max(1.0, float(space) - discount * floor)


@dataclass(frozen=True)
class RewardComponents:
    """The raw and combined reward terms for one subtree."""

    time: float
    space: float
    reward: float


class RewardCalculator:
    """Computes subtree rewards according to a NeuroCuts configuration."""

    def __init__(self, config: NeuroCutsConfig) -> None:
        if config.reward_scaling not in SCALING_FUNCTIONS:
            raise ConfigError(f"unknown reward scaling {config.reward_scaling!r}")
        self.coefficient = config.time_space_coeff
        self.scaling = SCALING_FUNCTIONS[config.reward_scaling]

    def subtree_reward(
        self, node: Node,
        costs: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> RewardComponents:
        """Reward of the completed subtree rooted at ``node``.

        ``RewardComponents.space`` reports the raw subtree footprint (what
        the evaluation tabulates); the combined reward charges only the
        excess over the node's irreducible rule storage.

        ``costs`` is a :func:`~repro.tree.stats.subtree_costs` table of a
        finished tree containing ``node``: a rollout rewards every decision
        from one pass over its tree instead of one walk per decision.
        """
        if costs is None:
            costs = subtree_costs(node)
        time, space = costs[node.node_id]
        return self.combine(float(time), float(space),
                            num_rules=node.num_rules)

    def combine(self, time: float, space: float,
                num_rules: int = 0) -> RewardComponents:
        """Combine raw time/space into the scalar reward.

        ``num_rules`` is the rule count whose storage floor is excluded from
        the space term; 0 leaves the space term unreduced.
        """
        c = self.coefficient
        reward = -(
            c * self.scaling(time)
            + (1.0 - c) * self.scaling(
                space_excess(space, num_rules, discount=floor_discount(c))
            )
        )
        return RewardComponents(time=time, space=space, reward=reward)

    def objective(self, time: float, space: float, num_rules: int = 0) -> float:
        """The minimisation objective (the negation of the reward)."""
        return -self.combine(time, space, num_rules=num_rules).reward

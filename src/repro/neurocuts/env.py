"""The NeuroCuts environment: tree rollouts as a series of 1-step decisions.

Section 5 ("Branching decision process environment"): rather than flattening
the tree-building process into one MDP, each node decision is treated as an
independent 1-step decision problem whose reward is computed once the
relevant subtree is complete.  A rollout therefore:

1. resets the decision tree to a single root node;
2. repeatedly asks the policy for an action on the current node (depth-first
   order), applies it, and records the decision;
3. stops when the tree is complete, the step budget is exhausted (rollout
   truncation) or depth truncation fires; and
4. walks the recorded decisions and assigns each one the reward of the
   subtree its node roots (max/sum aggregation handled by the tree stats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidActionError
from repro.rules.ruleset import RuleSet
from repro.rl.batch import ExperienceBuilder, SampleBatch
from repro.rl.policy import Policy, PolicyDecision
from repro.tree.node import Node
from repro.tree.stats import subtree_costs
from repro.tree.tree import DecisionTree
from repro.neurocuts.action_space import NeuroCutsActionSpace
from repro.neurocuts.config import NeuroCutsConfig
from repro.neurocuts.observation import ObservationEncoder
from repro.neurocuts.reward import RewardCalculator, RewardComponents


@dataclass
class RolloutResult:
    """Everything produced by one tree rollout."""

    tree: DecisionTree
    batch: Optional[SampleBatch]
    root_reward: RewardComponents
    num_steps: int
    truncated: bool
    #: Truncation left leaves holding more rules than the leaf threshold,
    #: so the tree is not a finished one; best-tree tracking passes it over.
    #: Worked out once, in :meth:`NeuroCutsEnv.rollout`, and only for a
    #: truncated rollout (one tree walk).
    overflowing: bool

    @property
    def objective(self) -> float:
        """The minimisation objective achieved by this rollout's tree."""
        return -self.root_reward.reward


@dataclass
class _RecordedDecision:
    """Bookkeeping for one decision awaiting its delayed reward."""

    node: Node
    obs: np.ndarray
    action: Tuple[int, int]
    log_prob: float
    value: float
    masks: Tuple[np.ndarray, np.ndarray]


class NeuroCutsEnv:
    """Runs NeuroCuts tree rollouts for one classifier."""

    def __init__(self, ruleset: RuleSet, config: NeuroCutsConfig) -> None:
        self.ruleset = ruleset
        self.config = config
        self.action_space = NeuroCutsActionSpace(config)
        self.observation_encoder = ObservationEncoder(self.action_space)
        self.reward_calculator = RewardCalculator(config)

    # ------------------------------------------------------------------ #
    # Rollouts
    # ------------------------------------------------------------------ #

    def new_tree(self) -> DecisionTree:
        """A fresh single-root tree for this classifier."""
        return DecisionTree(
            self.ruleset,
            leaf_threshold=self.config.leaf_threshold,
            max_depth=self.config.max_tree_depth,
        )

    def rollout(self, policy: Policy, deterministic: bool = False,
                collect_experience: bool = True) -> RolloutResult:
        """Build one tree with the given policy and compute its rewards."""
        tree = self.new_tree()
        decisions: List[_RecordedDecision] = []
        steps = 0
        truncated = False

        while not tree.is_complete():
            if steps >= self.config.max_timesteps_per_rollout:
                truncated = True
                tree.truncate()
                break
            node = tree.current_node()
            assert node is not None
            masks = self.action_space.masks_for_node(node)
            obs = self.observation_encoder.encode(node, masks)
            if deterministic:
                action = policy.act_deterministic(obs, masks=masks)
                decision = PolicyDecision(
                    action=action, log_prob=0.0,
                    value=policy.value(obs), masks=masks,
                )
            else:
                decision = policy.act(obs, masks=masks)
            tree_action = self.action_space.decode(decision.action)
            try:
                tree.apply_action(tree_action)
            except InvalidActionError:
                # The sampled action cannot be applied (e.g. a partition that
                # does not separate, or a cut on a width-1 range).  The node
                # becomes a leaf; the decision is still recorded so the agent
                # learns the consequences of wasting a step on it.
                node.forced_leaf = True
            steps += 1
            if collect_experience:
                decisions.append(
                    _RecordedDecision(
                        node=node,
                        obs=obs,
                        action=(int(decision.action[0]), int(decision.action[1])),
                        log_prob=decision.log_prob,
                        value=decision.value,
                        masks=masks,
                    )
                )

        # One post-order pass prices every subtree of the finished tree.
        costs = subtree_costs(tree.root)
        root_reward = self.reward_calculator.subtree_reward(tree.root, costs)
        batch = None
        if collect_experience and decisions:
            batch = self._assign_rewards(decisions, costs, root_reward)
        return RolloutResult(
            tree=tree,
            batch=batch,
            root_reward=root_reward,
            num_steps=steps,
            truncated=truncated,
            overflowing=truncated and tree.has_overflowing_leaves(),
        )

    def _assign_rewards(self, decisions: List[_RecordedDecision],
                        costs: Dict[int, Tuple[int, int]],
                        root_reward: RewardComponents) -> SampleBatch:
        """Compute each decision's delayed reward and build the batch.

        In the paper's "subtree" mode every decision is credited with the
        objective of the subtree it roots; in the "root" ablation mode every
        decision receives the whole-tree reward, which makes credit
        assignment much noisier (the dense-reward design choice of §4.2).
        """
        builder = ExperienceBuilder()
        for record in decisions:
            if self.config.reward_mode == "root":
                components = root_reward
            else:
                components = self.reward_calculator.subtree_reward(
                    record.node, costs)
            builder.add(
                obs=record.obs,
                action=np.array(record.action, dtype=np.int64),
                ret=components.reward,
                value_pred=record.value,
                logp=record.log_prob,
                masks=record.masks,
            )
        return builder.build()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def observation_size(self) -> int:
        """Flat observation length for this configuration."""
        return self.observation_encoder.size

    @property
    def action_sizes(self) -> Tuple[int, int]:
        """Sizes of the two categorical action components."""
        return self.action_space.space.sizes

"""Tests for the NeuroCuts environment, reward calculation, and trainer."""

import math

import numpy as np
import pytest

from repro.rules import Dimension, Rule, RuleSet
from repro.tree import CutAction, DecisionTree, validate_classifier
from repro.neurocuts import (
    NeuroCutsConfig,
    NeuroCutsEnv,
    NeuroCutsTrainer,
    RewardCalculator,
    linear_scaling,
    log_scaling,
    profile_tree,
)
from repro.neurocuts.trainer import NeuroCutsBuilder
from repro.rl import Policy
from repro.nn import ActorCriticMLP


class TestRewardCalculator:
    def test_scaling_functions(self):
        assert linear_scaling(7.0) == 7.0
        assert log_scaling(math.e) == pytest.approx(1.0)
        assert log_scaling(0.0) == 0.0  # clamped at log(1)

    def test_time_only_reward_is_negative_depth_cost(self, small_acl_ruleset):
        config = NeuroCutsConfig(time_space_coeff=1.0, reward_scaling="linear")
        calc = RewardCalculator(config)
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=len(small_acl_ruleset))
        components = calc.subtree_reward(tree.root)
        assert components.time == 1.0
        assert components.reward == -1.0

    def test_space_only_reward_charges_excess_over_rule_storage(
            self, small_acl_ruleset):
        from repro.tree import NODE_HEADER_BYTES, RULE_POINTER_BYTES

        config = NeuroCutsConfig(time_space_coeff=0.0, reward_scaling="linear")
        calc = RewardCalculator(config)
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=len(small_acl_ruleset))
        components = calc.subtree_reward(tree.root)
        # The footprint reported is the raw subtree space, but the reward
        # only charges the excess over storing each rule once; for a
        # single-leaf tree that excess is exactly the node header.
        num_rules = tree.root.num_rules
        assert components.space == \
            NODE_HEADER_BYTES + RULE_POINTER_BYTES * num_rules
        assert components.reward == -NODE_HEADER_BYTES

    def test_space_excess_ranks_trees_like_raw_space(self, small_acl_ruleset):
        from repro.neurocuts import space_excess

        # At the root the rule count is fixed, so excess space is raw space
        # minus a constant: orderings of complete trees are unchanged.
        n = len(small_acl_ruleset)
        assert space_excess(5000.0, n) - space_excess(4000.0, n) == \
            pytest.approx(1000.0)
        # The floor clamps at 1 so log scaling stays defined.
        assert space_excess(1.0, n) == 1.0

    def test_floor_discount_fades_out_by_half(self):
        from repro.neurocuts import floor_discount

        # Full floor exclusion in the pure-space regime, the paper's
        # raw-space reward from c = 0.5 on.
        assert floor_discount(0.0) == 1.0
        assert floor_discount(0.25) == pytest.approx(0.5)
        assert floor_discount(0.5) == 0.0
        assert floor_discount(1.0) == 0.0

    def test_mixed_reward_matches_raw_space_at_half(self, small_acl_ruleset):
        import math

        config = NeuroCutsConfig(time_space_coeff=0.5, reward_scaling="log")
        calc = RewardCalculator(config)
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=len(small_acl_ruleset))
        components = calc.subtree_reward(tree.root)
        expected = -(0.5 * math.log(components.time or 1.0)
                     + 0.5 * math.log(components.space))
        assert components.reward == pytest.approx(expected)

    def test_mixed_reward_interpolates(self):
        config = NeuroCutsConfig(time_space_coeff=0.5, reward_scaling="log")
        calc = RewardCalculator(config)
        combined = calc.combine(time=8.0, space=1024.0)
        expected = -(0.5 * math.log(8.0) + 0.5 * math.log(1024.0))
        assert combined.reward == pytest.approx(expected)
        assert calc.objective(8.0, 1024.0) == pytest.approx(-expected)


@pytest.fixture
def env_and_policy(small_acl_ruleset, test_config):
    env = NeuroCutsEnv(small_acl_ruleset, test_config)
    model = ActorCriticMLP(
        obs_size=env.observation_size,
        action_sizes=env.action_sizes,
        hidden_sizes=(16, 16),
        seed=0,
    )
    policy = Policy(model, env.action_space.space, seed=0)
    return env, policy


class TestEnv:
    def test_rollout_builds_complete_or_truncated_tree(self, env_and_policy):
        env, policy = env_and_policy
        result = env.rollout(policy)
        assert result.tree.is_complete()
        assert result.num_steps >= 1
        assert result.num_steps <= env.config.max_timesteps_per_rollout

    def test_rollout_batch_shapes(self, env_and_policy):
        env, policy = env_and_policy
        result = env.rollout(policy)
        batch = result.batch
        assert batch is not None
        assert len(batch) == result.num_steps
        assert batch.obs.shape == (result.num_steps, env.observation_size)
        assert batch.actions.shape == (result.num_steps, 2)
        assert len(batch.action_masks) == 2

    def test_rewards_are_negative_objectives(self, env_and_policy):
        env, policy = env_and_policy
        result = env.rollout(policy)
        assert np.all(result.batch.returns <= 0)
        assert result.objective == -result.root_reward.reward
        # The root decision's return equals the whole-tree reward.
        assert result.batch.returns[0] == pytest.approx(result.root_reward.reward)

    def test_rollout_tree_classifies_correctly(self, env_and_policy,
                                               small_acl_ruleset):
        from repro.tree import TreeClassifier

        env, policy = env_and_policy
        result = env.rollout(policy)
        classifier = TreeClassifier(small_acl_ruleset, [result.tree])
        report = validate_classifier(classifier, num_random_packets=100)
        assert report.is_correct

    def test_deterministic_rollout_no_experience(self, env_and_policy):
        env, policy = env_and_policy
        result = env.rollout(policy, deterministic=True, collect_experience=False)
        assert result.batch is None
        assert result.tree.is_complete()

    def test_rollout_respects_depth_truncation(self, small_fw_ruleset):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16), max_tree_depth=3, max_timesteps_per_rollout=500,
            leaf_threshold=1, seed=0,
        )
        env = NeuroCutsEnv(small_fw_ruleset, config)
        model = ActorCriticMLP(env.observation_size, env.action_sizes,
                               hidden_sizes=(16, 16), seed=0)
        policy = Policy(model, env.action_space.space, seed=0)
        result = env.rollout(policy)
        assert result.tree.depth() <= 3


def _eq_1_to_4(node):
    """(time, space) of a subtree straight from Eqs. 1-4, recursively."""
    from repro.tree import node_space_cost, node_time_cost

    below = [_eq_1_to_4(child) for child in node.children]
    time, space = node_time_cost(node), node_space_cost(node)
    if below:
        times = [t for t, _ in below]
        time += sum(times) if node.is_partition_node else max(times)
        space += sum(s for _, s in below)
    return time, space


class _FixedActionPolicy:
    """Always cuts the protocol field in two, whatever the masks say: after
    eight halvings the field is one value wide and the action is invalid."""

    def act(self, obs, masks=None):
        from repro.rl.policy import PolicyDecision

        return PolicyDecision(action=(4, 0), log_prob=0.0, value=0.0,
                              masks=masks)


class TestOverflowingFlag:
    """``RolloutResult.overflowing`` is the best-tree filter the rollout
    worker and the trainer both read: one tree walk, made in the rollout and
    only when it was truncated."""

    # Complete with depth-forced leaves over the threshold (the flag is
    # about truncation, not those), truncated, and complete at the root.
    @pytest.mark.parametrize("fixture,overrides,truncated", [
        ("small_acl_ruleset", {"max_tree_depth": 2}, False),
        ("small_fw_ruleset", {"max_timesteps_per_rollout": 12}, True),
        ("small_acl_ruleset", {"leaf_threshold": 100}, False),
    ])
    def test_flag_is_one_walk_of_a_truncated_tree(self, request, monkeypatch,
                                                  fixture, overrides,
                                                  truncated):
        config = NeuroCutsConfig.fast_test_config(**{
            "hidden_sizes": (16, 16), "leaf_threshold": 4, "seed": 1,
            **overrides})
        env = NeuroCutsEnv(request.getfixturevalue(fixture), config)
        model = ActorCriticMLP(env.observation_size, env.action_sizes,
                               hidden_sizes=(16, 16), seed=1)
        walks = []
        walk = DecisionTree.has_overflowing_leaves
        monkeypatch.setattr(DecisionTree, "has_overflowing_leaves",
                            lambda tree: walks.append(tree) or walk(tree))
        result = env.rollout(Policy(model, env.action_space.space, seed=1))
        assert result.truncated == truncated
        assert walks == ([result.tree] if truncated else [])
        monkeypatch.undo()
        assert result.overflowing == (
            result.truncated and result.tree.has_overflowing_leaves())
        assert result.overflowing == truncated


class TestOnePassRewards:
    """Every decision's return, priced from one pass over the finished tree,
    equals ``subtree_reward`` walked from that decision's node — exactly."""

    def _check(self, ruleset, policy=None, seed=1, **overrides):
        config = NeuroCutsConfig.fast_test_config(**{
            "hidden_sizes": (16, 16), "leaf_threshold": 4, "seed": seed,
            **overrides})
        env = NeuroCutsEnv(ruleset, config)
        if policy is None:
            model = ActorCriticMLP(env.observation_size, env.action_sizes,
                                   hidden_sizes=(16, 16), seed=seed)
            policy = Policy(model, env.action_space.space, seed=seed)
        recorded = []
        assign = env._assign_rewards

        def spy(decisions, costs, root_reward):
            recorded.extend(decisions)
            return assign(decisions, costs, root_reward)

        env._assign_rewards = spy
        result = env.rollout(policy)
        calc = RewardCalculator(config)
        assert len(recorded) == result.num_steps == len(result.batch)
        assert recorded[0].node is result.tree.root
        if config.reward_mode == "root":
            walked = [calc.subtree_reward(result.tree.root)] * len(recorded)
        else:
            walked = [calc.subtree_reward(r.node) for r in recorded]
        assert result.batch.returns.tolist() == [w.reward for w in walked]
        assert result.root_reward == calc.subtree_reward(result.tree.root)
        for record, components in zip(recorded, walked):
            if config.reward_mode != "root":
                assert (components.time, components.space) \
                    == _eq_1_to_4(record.node)
        return result, recorded

    def test_complete_rollout(self, small_acl_ruleset):
        # Two levels of cuts at most: complete well inside the step budget.
        result, _ = self._check(small_acl_ruleset, max_tree_depth=2)
        assert not result.truncated and result.num_steps > 1

    def test_truncated_rollout(self, small_fw_ruleset):
        result, _ = self._check(small_fw_ruleset, max_timesteps_per_rollout=12,
                                time_space_coeff=0.5, reward_scaling="log")
        assert result.truncated
        assert result.tree.has_overflowing_leaves()

    def test_forced_leaves_from_invalid_actions(self, small_fw_ruleset):
        result, recorded = self._check(small_fw_ruleset,
                                       policy=_FixedActionPolicy(),
                                       max_timesteps_per_rollout=600)
        wasted = [r for r in recorded if r.node.is_leaf]
        assert wasted and all(r.node.forced_leaf for r in wasted)

    # Seeds whose first sampled action partitions the root.
    @pytest.mark.parametrize("mode,seed", [("simple", 0), ("efficuts", 6)])
    def test_partition_modes(self, small_fw_ruleset, mode, seed):
        result, _ = self._check(
            small_fw_ruleset, seed=seed, partition_mode=mode,
            max_timesteps_per_rollout=60, time_space_coeff=0.0)
        # Sum-over-children time (Eq. 3) must have been exercised.
        assert result.tree.root.is_partition_node

    def test_root_reward_mode(self, small_fw_ruleset):
        result, _ = self._check(small_fw_ruleset, reward_mode="root",
                                max_timesteps_per_rollout=40)
        assert set(result.batch.returns.tolist()) \
            == {result.root_reward.reward}


class TestTrainer:
    def test_training_produces_valid_classifier(self, trained_trainer,
                                                 small_acl_ruleset):
        result = trained_trainer.result()
        classifier = result.best_classifier()
        report = validate_classifier(classifier, num_random_packets=150)
        assert report.is_correct
        assert result.best_objective > 0
        assert result.timesteps_total > 0
        assert len(result.history) >= 1

    def test_history_tracks_monotone_best(self, trained_trainer):
        best_values = [h.best_objective for h in trained_trainer.history]
        assert all(b >= a for a, b in zip(best_values[1:], best_values[:-1]))

    def test_sample_trees_are_complete(self, trained_trainer):
        trees = trained_trainer.sample_trees(2)
        assert len(trees) == 2
        for tree in trees:
            assert tree.is_complete()
            profile = profile_tree(tree)
            assert profile.num_nodes >= 1

    def test_builder_interface(self, small_acl_ruleset, test_config):
        builder = NeuroCutsBuilder(config=test_config)
        result = builder.build_with_stats(small_acl_ruleset)
        assert result.algorithm == "NeuroCuts"
        assert result.classification_time >= 1
        assert builder.last_result is not None

    def test_convergence_patience_stops_early(self, small_acl_ruleset):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16),
            max_timesteps_total=100_000,
            timesteps_per_batch=200,
            max_timesteps_per_rollout=100,
            leaf_threshold=16,
            convergence_patience=2,
            seed=0,
        )
        trainer = NeuroCutsTrainer(small_acl_ruleset, config)
        result = trainer.train(max_iterations=50)
        # Far fewer timesteps than the cap because the patience fired.
        assert result.timesteps_total < 100_000

    def test_partition_mode_training(self, small_fw_ruleset):
        config = NeuroCutsConfig.fast_test_config(
            hidden_sizes=(16, 16),
            max_timesteps_total=600,
            timesteps_per_batch=300,
            max_timesteps_per_rollout=150,
            partition_mode="efficuts",
            time_space_coeff=0.0,
            reward_scaling="log",
            leaf_threshold=8,
            seed=1,
        )
        trainer = NeuroCutsTrainer(small_fw_ruleset, config)
        result = trainer.train()
        classifier = result.best_classifier()
        report = validate_classifier(classifier, num_random_packets=100)
        assert report.is_correct

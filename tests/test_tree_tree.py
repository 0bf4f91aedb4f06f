"""Tests for DecisionTree: construction state machine, traversal, lookup."""

import pytest

import reference_walk
from repro.exceptions import TreeError
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import (
    CutAction,
    DecisionTree,
    PartitionAction,
    TreeClassifier,
    build_with_policy,
)


def _priority(rule):
    return rule.priority if rule else None


def _assert_three_way(ruleset, tree, packets):
    """The recursive test walk, the compiled engine and linear search name
    the same rule for every packet."""
    compiled = TreeClassifier(ruleset, [tree]).compile().classify_batch(packets)
    for packet, got in zip(packets, compiled):
        walked, _ = reference_walk.tree_walk(tree, packet)
        assert _priority(walked) == _priority(got) \
            == _priority(ruleset.classify(packet))


class TestConstructionStateMachine:
    def test_root_holds_all_rules(self, small_acl_ruleset):
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=4)
        assert tree.root.num_rules == len(small_acl_ruleset)
        assert tree.root.depth == 0

    def test_already_terminal_root(self, tiny_ruleset):
        tree = DecisionTree(tiny_ruleset, leaf_threshold=16)
        assert tree.is_complete()
        assert tree.current_node() is None

    def test_apply_action_advances_dfs(self, small_acl_ruleset):
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=4)
        first = tree.current_node()
        assert first is tree.root
        children = tree.apply_action(CutAction(Dimension.SRC_IP, 4))
        nxt = tree.current_node()
        if nxt is not None:
            # DFS: the next node must be one of the children just created,
            # specifically the first non-terminal one.
            non_terminal = [c for c in children if not c.is_terminal(4)]
            assert nxt is non_terminal[0]

    def test_apply_on_complete_tree_raises(self, tiny_ruleset):
        tree = DecisionTree(tiny_ruleset, leaf_threshold=16)
        with pytest.raises(TreeError):
            tree.apply_action(CutAction(Dimension.SRC_IP, 2))

    def test_invalid_leaf_threshold(self, tiny_ruleset):
        with pytest.raises(TreeError):
            DecisionTree(tiny_ruleset, leaf_threshold=0)

    def test_truncate_marks_remaining_nodes(self, small_acl_ruleset):
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=2)
        tree.apply_action(CutAction(Dimension.SRC_IP, 2))
        tree.truncate()
        assert tree.is_complete()
        assert tree.has_overflowing_leaves()

    def test_depth_truncation_forces_leaves(self, small_fw_ruleset):
        tree = build_with_policy(
            small_fw_ruleset,
            lambda node: CutAction(Dimension.PROTOCOL, 2),
            leaf_threshold=1,
            max_depth=3,
        )
        assert tree.depth() <= 3

    def test_num_actions_taken(self, small_acl_ruleset):
        tree = DecisionTree(small_acl_ruleset, leaf_threshold=4)
        assert tree.num_actions_taken == 0
        tree.apply_action(CutAction(Dimension.SRC_IP, 4))
        assert tree.num_actions_taken == 1


class TestTraversal:
    @pytest.fixture
    def built_tree(self, small_acl_ruleset):
        return build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 8),
            leaf_threshold=8,
            max_depth=20,
        )

    def test_nodes_count_consistency(self, built_tree):
        nodes = list(built_tree.nodes())
        leaves = list(built_tree.leaves())
        internal = list(built_tree.internal_nodes())
        assert len(nodes) == len(leaves) + len(internal)
        assert built_tree.num_nodes() == len(nodes)
        assert built_tree.num_leaves() == len(leaves)

    def test_nodes_per_level_sums_to_node_count(self, built_tree):
        per_level = built_tree.nodes_per_level()
        assert sum(per_level) == built_tree.num_nodes()
        assert per_level[0] == 1

    def test_depth_matches_deepest_leaf(self, built_tree):
        assert built_tree.depth() == max(leaf.depth for leaf in built_tree.leaves())

    def test_max_leaf_rules_respects_threshold(self, built_tree):
        if not built_tree.has_overflowing_leaves():
            assert built_tree.max_leaf_rules() <= built_tree.leaf_threshold


class TestClassification:
    def test_tree_matches_linear_search(self, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.DST_IP, 8),
            leaf_threshold=8,
        )
        _assert_three_way(small_acl_ruleset, tree,
                          small_acl_ruleset.sample_packets(100, seed=11))

    def test_partitioned_tree_matches_linear_search(self, small_fw_ruleset):
        def policy(node):
            if node.depth == 0:
                return PartitionAction(Dimension.SRC_IP, 0.5)
            return CutAction(Dimension.DST_IP, 8)

        # A truncated tree is still an exact classifier; the depth cap keeps
        # this fixed (non-adaptive) policy from exploding on fw-style rules.
        tree = build_with_policy(small_fw_ruleset, policy, leaf_threshold=8,
                                 max_depth=3, max_actions=300)
        _assert_three_way(small_fw_ruleset, tree,
                          small_fw_ruleset.sample_packets(100, seed=12))

    def test_classify_with_depth_counts_levels(self, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 4),
            leaf_threshold=8,
        )
        packet = small_acl_ruleset.sample_packets(1, seed=13)[0]
        _, depth = reference_walk.tree_walk(tree, packet)
        assert 1 <= depth <= tree.depth() + 1


class TestBuildWithPolicy:
    def test_policy_error_falls_back_to_leaf(self, small_acl_ruleset):
        # A policy that always partitions will eventually produce an invalid
        # partition (all rules on one side); the driver must not loop forever.
        def bad_policy(node):
            return PartitionAction(Dimension.SRC_IP, 0.0)

        tree = build_with_policy(small_acl_ruleset, bad_policy, leaf_threshold=4,
                                 max_actions=200)
        assert tree.is_complete()

    def test_max_actions_truncates(self, small_fw_ruleset):
        tree = build_with_policy(
            small_fw_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 2),
            leaf_threshold=1,
            max_actions=5,
        )
        assert tree.is_complete()
        assert tree.num_actions_taken <= 5

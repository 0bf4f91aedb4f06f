"""Tests for multi-tree classifiers, validation helpers and serialization."""

import numpy as np
import pytest

import reference_walk
from repro.rules import Dimension, Rule, RuleSet
from repro.tree import (
    CutAction,
    DecisionTree,
    PartitionAction,
    TreeClassifier,
    assert_tree_invariants,
    build_with_policy,
    corner_packets,
    load_tree,
    save_tree,
    tree_from_dict,
    tree_to_dict,
    validate_classifier,
    validate_tree,
)


@pytest.fixture
def two_tree_classifier(small_fw_ruleset):
    """A classifier whose rules are split across two trees by coverage."""
    large = [r for r in small_fw_ruleset
             if r.coverage_fraction(Dimension.SRC_IP) > 0.5]
    small = [r for r in small_fw_ruleset
             if r.coverage_fraction(Dimension.SRC_IP) <= 0.5]
    from repro.exceptions import InvalidActionError

    trees = []
    for subset in (small, large):
        if not subset:
            continue
        # max_depth keeps the fixed DstIP-cutting policy from exploding on
        # rules that wildcard DstIP; truncated trees remain exact.
        tree = DecisionTree(small_fw_ruleset, leaf_threshold=8, rules=subset,
                            max_depth=3)
        while not tree.is_complete():
            node = tree.current_node()
            try:
                tree.apply_action(CutAction(Dimension.DST_IP, 8))
            except InvalidActionError:
                node.forced_leaf = True
        trees.append(tree)
    return TreeClassifier(small_fw_ruleset, trees)


class TestTreeClassifier:
    def test_needs_at_least_one_tree(self, small_fw_ruleset):
        with pytest.raises(ValueError):
            TreeClassifier(small_fw_ruleset, [])

    def test_multi_tree_lookup_matches_linear(self, two_tree_classifier,
                                              small_fw_ruleset):
        report = validate_classifier(
            two_tree_classifier,
            packets=small_fw_ruleset.sample_packets(150, seed=3))
        assert report.num_packets == 150
        assert report.num_mismatches == 0

    def test_stats_aggregate_across_trees(self, two_tree_classifier):
        stats = two_tree_classifier.stats()
        per_tree = two_tree_classifier.per_tree_stats()
        assert stats.num_trees == len(two_tree_classifier.trees)
        assert stats.classification_time == sum(
            s.classification_time for s in per_tree
        )
        assert stats.memory_bytes == sum(s.memory_bytes for s in per_tree)
        assert stats.depth == max(s.depth for s in per_tree)

    def test_classify_batch(self, two_tree_classifier, small_fw_ruleset):
        packets = small_fw_ruleset.sample_packets(10, seed=4)
        results = two_tree_classifier.compile().classify_batch(packets)
        assert len(results) == 10
        for packet, got in zip(packets, results):
            walked = reference_walk.classify(two_tree_classifier, packet)
            linear = small_fw_ruleset.classify(packet)
            assert got.priority == walked.priority == linear.priority


class TestValidation:
    def test_corner_packets_cover_rule_bounds(self, tiny_ruleset):
        packets = corner_packets(tiny_ruleset)
        assert len(packets) == 3 * len(tiny_ruleset)
        # r0's hi corner: one past src_ip and dst_ip, the ports and the
        # protocol (wildcards that end at the field maximum) at hi - 1.
        r0 = tiny_ruleset[0]
        assert packets[2].as_tuple() == (
            r0.ranges[0][1], r0.ranges[1][1], 65535, 65535, 255)

    def test_corners_catch_an_inclusive_upper_bound(self, tiny_ruleset):
        class InclusiveUpperBound:
            """An engine matching ``lo <= x <= hi``: right everywhere
            except at hi."""

            ruleset = tiny_ruleset
            rules = list(tiny_ruleset)

            def compile(self):
                return self

            def match_indices(self, values):
                found = []
                for header in values.tolist():
                    hits = [i for i, rule in enumerate(self.rules)
                            if all(lo <= value <= hi for value, (lo, hi)
                                   in zip(header, rule.ranges))]
                    found.append(max(hits, default=-1,
                                     key=lambda i: self.rules[i].priority))
                return np.array(found, dtype=np.int64)

        report = validate_classifier(InclusiveUpperBound(),
                                     num_random_packets=0)
        assert report.num_packets == 3 * len(tiny_ruleset)
        assert not report.is_correct

    def test_validate_tree_reports_correct(self, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 8),
            leaf_threshold=8,
        )
        report = validate_tree(tree, num_random_packets=100)
        assert report.is_correct
        assert report.num_packets > 0
        assert report.mismatching_packets == []

    def test_validate_catches_broken_tree(self, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 8),
            leaf_threshold=8,
        )
        # Break the tree on purpose: empty out one leaf that holds rules.
        victim = max(tree.leaves(), key=lambda leaf: leaf.num_rules)
        victim.rules.clear()
        report = validate_tree(tree, num_random_packets=300)
        assert not report.is_correct

    def test_invariants_hold_for_policy_built_tree(self, small_fw_ruleset):
        def policy(node):
            if node.depth == 0:
                return PartitionAction(Dimension.SRC_IP, 0.5)
            return CutAction(Dimension.DST_IP, 4)

        tree = build_with_policy(small_fw_ruleset, policy, leaf_threshold=8,
                                 max_depth=3, max_actions=300)
        assert_tree_invariants(tree)


class TestSerialization:
    def test_dict_roundtrip_preserves_structure(self, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 8),
            leaf_threshold=8,
        )
        data = tree_to_dict(tree)
        restored = tree_from_dict(data, small_acl_ruleset)
        assert restored.num_nodes() == tree.num_nodes()
        assert restored.depth() == tree.depth()
        # Restored tree classifies identically.
        packets = small_acl_ruleset.sample_packets(50, seed=5)
        before, after = (
            TreeClassifier(small_acl_ruleset, [t]).compile()
            .classify_batch(packets) for t in (tree, restored))
        assert [m.priority if m else None for m in before] == \
            [m.priority if m else None for m in after]

    def test_file_roundtrip(self, tmp_path, small_acl_ruleset):
        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.DST_IP, 4),
            leaf_threshold=8,
        )
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        restored = load_tree(path, small_acl_ruleset)
        assert restored.num_leaves() == tree.num_leaves()

    def test_unknown_rule_priorities_rejected(self, small_acl_ruleset,
                                              small_fw_ruleset):
        from repro.exceptions import TreeError

        tree = build_with_policy(
            small_acl_ruleset,
            lambda node: CutAction(Dimension.SRC_IP, 4),
            leaf_threshold=8,
        )
        data = tree_to_dict(tree)
        # Deserialising against the wrong classifier must fail loudly if the
        # priorities do not line up.
        data["root"]["rule_priorities"] = [10 ** 6]
        with pytest.raises(TreeError):
            tree_from_dict(data, small_fw_ruleset)

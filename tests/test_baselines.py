"""Tests for the baseline algorithms: HiCuts, HyperCuts, EffiCuts, CutSplit
and linear search.

Every baseline must (a) build a complete classifier, (b) classify exactly
like linear search, and (c) exhibit the qualitative behaviour the literature
attributes to it (e.g. EffiCuts trades classification time for memory).
"""

import pytest

from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
    LinearSearchBuilder,
    default_baselines,
)
from repro.classbench import generate_classifier
from repro.rules import Dimension
from repro.tree import validate_classifier

ALL_BUILDERS = [HiCutsBuilder, HyperCutsBuilder, EffiCutsBuilder, CutSplitBuilder]


@pytest.mark.parametrize("builder_cls", ALL_BUILDERS)
class TestCorrectness:
    def test_acl_classifier_correct(self, builder_cls, small_acl_ruleset):
        builder = builder_cls(binth=8)
        classifier = builder.build(small_acl_ruleset)
        report = validate_classifier(classifier, num_random_packets=150)
        assert report.is_correct, f"{builder.name} misclassified packets"

    def test_fw_classifier_correct(self, builder_cls, small_fw_ruleset):
        builder = builder_cls(binth=8)
        classifier = builder.build(small_fw_ruleset)
        report = validate_classifier(classifier, num_random_packets=150)
        assert report.is_correct, f"{builder.name} misclassified packets"

    def test_stats_are_positive(self, builder_cls, small_acl_ruleset):
        result = builder_cls(binth=8).build_with_stats(small_acl_ruleset)
        assert result.classification_time >= 1
        assert result.bytes_per_rule > 0
        assert result.stats.num_nodes >= 1


class TestHiCuts:
    def test_respects_leaf_threshold(self, small_acl_ruleset):
        classifier = HiCutsBuilder(binth=4).build(small_acl_ruleset)
        tree = classifier.trees[0]
        for leaf in tree.leaves():
            if not leaf.forced_leaf:
                assert leaf.num_rules <= 4

    def test_produces_single_tree(self, small_acl_ruleset):
        classifier = HiCutsBuilder(binth=8).build(small_acl_ruleset)
        assert len(classifier.trees) == 1

    def test_space_factor_limits_fanout(self, small_fw_ruleset):
        tight = HiCutsBuilder(binth=8, spfac=1.0).build_with_stats(small_fw_ruleset)
        loose = HiCutsBuilder(binth=8, spfac=8.0).build_with_stats(small_fw_ruleset)
        # A looser space factor allows more cuts per node, so the tree gets
        # shallower (or equal) at the cost of more memory.
        assert loose.classification_time <= tight.classification_time

    def test_dimension_choice_prefers_discriminating_dim(self, small_acl_ruleset):
        builder = HiCutsBuilder(binth=8)
        from repro.tree import DecisionTree

        tree = DecisionTree(small_acl_ruleset, leaf_threshold=8)
        dim = builder.choose_dimension(tree.root)
        counts = {
            d: len({r.range_for(d) for r in tree.root.rules}) for d in Dimension
        }
        assert counts[dim] == max(counts.values())


class TestHyperCuts:
    def test_can_cut_multiple_dimensions(self, small_fw_ruleset):
        from repro.tree import DecisionTree, MultiCutAction

        builder = HyperCutsBuilder(binth=8)
        tree = DecisionTree(small_fw_ruleset, leaf_threshold=8)
        action = builder.choose_action(tree.root)
        # On a rich root node HyperCuts generally multi-cuts; at minimum it
        # must return a usable cut action.
        assert action is not None

    def test_not_deeper_than_hicuts_on_average(self, small_fw_ruleset):
        hi = HiCutsBuilder(binth=8).build_with_stats(small_fw_ruleset)
        hyper = HyperCutsBuilder(binth=8).build_with_stats(small_fw_ruleset)
        # Multi-dimensional cuts should not make trees deeper.
        assert hyper.classification_time <= hi.classification_time + 1


class TestEffiCuts:
    def test_partitions_reduce_memory_vs_hicuts(self):
        # Use a larger fw classifier where rule replication actually bites.
        ruleset = generate_classifier("fw5", 300, seed=5)
        hi = HiCutsBuilder(binth=16).build_with_stats(ruleset)
        effi = EffiCutsBuilder(binth=16).build_with_stats(ruleset)
        assert effi.bytes_per_rule < hi.bytes_per_rule

    def test_partition_preserves_all_rules(self, small_fw_ruleset):
        builder = EffiCutsBuilder(binth=8)
        categories = builder.partition_rules(small_fw_ruleset.rules)
        total = sum(len(rules) for rules in categories.values())
        assert total == len(small_fw_ruleset)

    def test_merging_reduces_category_count(self, small_fw_ruleset):
        merged = EffiCutsBuilder(binth=8, merge_small_categories=True,
                                 min_category_size=10)
        unmerged = EffiCutsBuilder(binth=8, merge_small_categories=False)
        merged_count = len(merged.partition_rules(small_fw_ruleset.rules))
        unmerged_count = len(unmerged.partition_rules(small_fw_ruleset.rules))
        assert merged_count <= unmerged_count

    def test_single_dimension_cut_mode(self, small_fw_ruleset):
        restricted = EffiCutsBuilder(binth=8, use_multi_dimensional_cuts=False)
        classifier = restricted.build(small_fw_ruleset)
        report = validate_classifier(classifier, num_random_packets=100)
        assert report.is_correct


class TestCutSplit:
    def test_partitions_by_ip_smallness(self, small_fw_ruleset):
        builder = CutSplitBuilder(binth=8)
        subsets = builder.partition_rules(small_fw_ruleset.rules)
        assert sum(len(v) for v in subsets.values()) == len(small_fw_ruleset)
        assert all(rules for rules in subsets.values())

    def test_produces_multiple_trees_when_mixed(self, small_fw_ruleset):
        classifier = CutSplitBuilder(binth=8).build(small_fw_ruleset)
        assert len(classifier.trees) >= 1

    def test_memory_competitive_with_hicuts(self):
        ruleset = generate_classifier("fw3", 300, seed=6)
        hi = HiCutsBuilder(binth=16).build_with_stats(ruleset)
        cutsplit = CutSplitBuilder(binth=16).build_with_stats(ruleset)
        assert cutsplit.bytes_per_rule <= hi.bytes_per_rule * 1.5


class TestLinearSearch:
    def test_single_leaf(self, small_acl_ruleset):
        classifier = LinearSearchBuilder().build(small_acl_ruleset)
        assert classifier.stats().num_nodes == 1
        assert classifier.stats().classification_time == 1

    def test_correct(self, small_acl_ruleset):
        classifier = LinearSearchBuilder().build(small_acl_ruleset)
        report = validate_classifier(classifier, num_random_packets=100)
        assert report.is_correct


class TestComparisonHelpers:
    def test_default_baselines_keys(self):
        assert set(default_baselines()) == {
            "HiCuts", "HyperCuts", "EffiCuts", "CutSplit"
        }

    def test_default_baselines_build_under_their_names(self, small_acl_ruleset):
        results = {name: builder.build_with_stats(small_acl_ruleset)
                   for name, builder in default_baselines(binth=8).items()}
        assert set(results) == {"HiCuts", "HyperCuts", "EffiCuts", "CutSplit"}
        for name, result in results.items():
            assert result.algorithm == name
            assert result.classification_time >= 1

"""Tests for incremental classifier updates and tree-shape visualisation."""

import pytest

import reference_walk
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import (
    CutAction,
    EffiCutsPartitionAction,
    PartitionAction,
    TreeClassifier,
    build_with_policy,
    validate_classifier,
)
from repro.neurocuts import (
    IncrementalUpdater,
    compare_profiles,
    profile_tree,
    render_profile,
)


@pytest.fixture
def built_tree(small_acl_ruleset):
    return build_with_policy(
        small_acl_ruleset,
        lambda node: CutAction(Dimension.SRC_IP, 8),
        leaf_threshold=8,
    )


class TestIncrementalUpdates:
    def test_add_rule_lands_in_intersecting_leaves(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        new_rule = Rule.from_fields(dst_port=(4443, 4444), priority=10 ** 6,
                                    name="new")
        touched = updater.add_rule(new_rule)
        assert touched >= 1
        assert updater.stats.rules_added == 1
        # The updated tree must classify packets hitting the new rule correctly.
        packet = built_tree.ruleset.sample_matching_packet(new_rule)
        match, _ = reference_walk.tree_walk(built_tree, packet)
        assert match is not None and match.priority == new_rule.priority

    def test_updated_tree_still_matches_linear_search(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        new_rule = Rule.from_prefixes(src_ip="77.1.0.0/16", priority=10 ** 6)
        updater.add_rule(new_rule)
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        report = validate_classifier(
            classifier, packets=built_tree.ruleset.sample_packets(150, seed=9))
        assert report.num_mismatches == 0

    def test_remove_rule(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        victim = built_tree.ruleset[0]
        touched = updater.remove_rule(victim)
        assert touched >= 1
        assert victim not in built_tree.ruleset.rules
        assert all(victim not in leaf.rules for leaf in built_tree.leaves())

    def test_remove_rule_purges_internal_nodes(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        victim = built_tree.ruleset[0]
        updater.remove_rule(victim)
        assert all(victim not in node.rules for node in built_tree.nodes())
        assert updater.stats.rules_removed == 1

    def test_remove_rule_still_matches_linear_search(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        victim = built_tree.ruleset[len(built_tree.ruleset) // 2]
        updater.remove_rule(victim)
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        report = validate_classifier(
            classifier,
            packets=built_tree.ruleset.sample_packets(150, seed=11))
        assert report.num_mismatches == 0

    @pytest.mark.parametrize("partition", [
        PartitionAction(Dimension.SRC_IP, 0.02),
        EffiCutsPartitionAction(0.5)], ids=lambda a: a.describe())
    def test_removal_restores_shadowed_rules_under_partitions(self, partition):
        """Whatever a removed rule shadowed at build time comes back — into
        the partition it is routed to, and nowhere else."""
        shadow = Rule.from_prefixes(src_ip="10.0.0.0/8", priority=50,
                                    name="shadow")
        hidden = [
            Rule.from_prefixes(src_ip="10.1.0.0/16", priority=40, name="a"),
            Rule.from_prefixes(src_ip="10.2.0.0/16", protocol=6, priority=39,
                               name="b"),
            # Nested in "a": comes back only where "a" does not cover it.
            Rule.from_prefixes(src_ip="10.1.2.0/24", priority=38, name="c"),
        ]
        others = [Rule.from_prefixes(src_ip=f"{20 + i}.0.0.0/8",
                                     priority=30 - i, name=f"o{i}")
                  for i in range(8)]
        ruleset = RuleSet([shadow] + hidden + others
                          + [Rule.wildcard(priority=0)])

        def policy(node):
            if node.depth == 0:
                return partition
            return CutAction(Dimension.SRC_IP, 4)

        tree = build_with_policy(ruleset, policy, leaf_threshold=2,
                                 max_depth=6)
        assert tree.root.is_partition_node
        updater = IncrementalUpdater(tree)
        # Under the EffiCuts partition "b" (one protocol) lives in another
        # category than "shadow", which therefore never shadowed it.
        beside = [rule for rule in hidden
                  if updater._partition_child(tree.root, rule)
                  is updater._partition_child(tree.root, shadow)]
        held = {rule for leaf in tree.leaves() for rule in leaf.rules}
        assert shadow in held and hidden[0] in beside
        assert not held & set(beside)

        assert updater.remove_rule(shadow) >= 1
        held = {rule for leaf in tree.leaves() for rule in leaf.rules}
        assert {hidden[0], hidden[1]} <= held and hidden[2] not in held
        report = validate_classifier(TreeClassifier(tree.ruleset, [tree]),
                                     num_random_packets=300)
        assert report.is_correct
        for child in tree.root.children:
            assert all(updater._partition_child(tree.root, rule) is child
                       for rule in child.rules)
        for node in tree.internal_nodes():
            assert all(rule in node.rules for child in node.children
                       for rule in child.rules)
        # And again one level down the chain.
        updater.remove_rule(hidden[0])
        assert hidden[2] in {rule for leaf in tree.leaves()
                             for rule in leaf.rules}
        assert validate_classifier(TreeClassifier(tree.ruleset, [tree]),
                                   num_random_packets=300).is_correct

    def test_leaves_touched_counts_every_leaf_reached(self, small_fw_ruleset):
        """Updates walk only the children a rule reaches into; the counts
        are those of a walk over every node."""
        from repro.baselines import HiCutsBuilder, HyperCutsBuilder

        for builder in (HiCutsBuilder(binth=4), HyperCutsBuilder(binth=4)):
            tree = builder.build(small_fw_ruleset).trees[0]
            updater = IncrementalUpdater(tree)
            top = max(r.priority for r in small_fw_ruleset.rules)
            fresh = [Rule.from_prefixes(src_ip="10.0.0.0/7", priority=top + 1),
                     Rule.from_fields(dst_port=(1000, 1001), protocol=(6, 7),
                                      priority=top + 2),
                     Rule.wildcard(priority=top + 3, name="everything")]
            for rule in fresh:
                reached = sum(rule.intersects(leaf.ranges)
                              for leaf in tree.leaves())
                assert updater.add_rule(rule) == reached > 0
            for victim in fresh + list(small_fw_ruleset.rules[5:25]):
                holding = sum(victim in leaf.rules for leaf in tree.leaves())
                assert updater.remove_rule(victim) == holding
                assert all(victim not in node.rules for node in tree.nodes())

    def test_remove_unknown_rule_is_a_noop(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        stranger = Rule.from_fields(dst_port=(7, 8), priority=10 ** 7,
                                    name="stranger")
        version = built_tree.version
        assert updater.remove_rule(stranger) == 0
        assert updater.stats.rules_removed == 0
        # No structural change, so the compiled-engine cache stays valid.
        assert built_tree.version == version

    def test_add_then_remove_restores_linear_search_agreement(self, built_tree):
        updater = IncrementalUpdater(built_tree)
        rule = Rule.from_prefixes(src_ip="93.4.0.0/16", priority=10 ** 6)
        updater.add_rule(rule)
        assert updater.remove_rule(rule) >= 1
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        report = validate_classifier(
            classifier,
            packets=built_tree.ruleset.sample_packets(150, seed=13))
        assert report.num_mismatches == 0

    def test_retraining_threshold(self, built_tree):
        updater = IncrementalUpdater(built_tree, retrain_threshold=2)
        assert not updater.needs_retraining()
        updater.add_rule(Rule.from_fields(dst_port=(1, 2), priority=10 ** 6))
        updater.add_rule(Rule.from_fields(dst_port=(3, 4), priority=10 ** 6 + 1))
        assert updater.needs_retraining()

    def test_update_routed_through_partition(self, small_fw_ruleset):
        def policy(node):
            if node.depth == 0:
                return PartitionAction(Dimension.SRC_IP, 0.5)
            return CutAction(Dimension.DST_IP, 8)

        # Depth cap: a fixed cutting policy cannot separate fw-style rules
        # that wildcard DstIP, so uncapped construction would blow up.
        tree = build_with_policy(small_fw_ruleset, policy, leaf_threshold=8,
                                 max_depth=3, max_actions=300)
        updater = IncrementalUpdater(tree)
        # A rule that is "small" in SRC_IP must be routed to the small child only.
        new_rule = Rule.from_prefixes(src_ip="88.9.0.0/16", priority=10 ** 6)
        updater.add_rule(new_rule)
        root = tree.root
        small_child, large_child = root.children
        assert new_rule in small_child.rules
        assert new_rule not in large_child.rules


class TestCompiledEngineInvalidation:
    """End-to-end: incremental updates must invalidate the compiled engine.

    The engine caches the compiled flat-array form keyed on the trees'
    structural version; ``IncrementalUpdater`` bumps the version through
    ``mark_modified`` so the next batched lookup recompiles instead of
    serving stale tables.
    """

    def _packets(self, ruleset, seed=17, n=200):
        return ruleset.sample_packets(n, seed=seed)

    def test_add_rule_bumps_version_and_recompiles(self, built_tree):
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        compiled_before = classifier.compile()
        version_before = built_tree.version
        assert classifier.compile() is compiled_before  # cache hit

        updater = IncrementalUpdater(built_tree)
        new_rule = Rule.from_fields(dst_port=(5555, 5556), priority=10 ** 6,
                                    name="hot")
        updater.add_rule(new_rule)
        assert built_tree.version > version_before

        compiled_after = classifier.compile()
        assert compiled_after is not compiled_before
        # The recompiled engine serves the new rule on its matching flow.
        packet = built_tree.ruleset.sample_matching_packet(new_rule)
        [match] = compiled_after.classify_batch([packet])
        assert match is not None and match.priority == new_rule.priority

    def test_remove_rule_recompile_matches_interpreter(self, built_tree):
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        victim = built_tree.ruleset[0]
        packet = built_tree.ruleset.sample_matching_packet(victim)
        compiled_before = classifier.compile()
        [before] = compiled_before.classify_batch([packet])
        assert before is not None and before.priority == victim.priority

        IncrementalUpdater(built_tree).remove_rule(victim)
        compiled_after = classifier.compile()
        assert compiled_after is not compiled_before
        # Compiled batch results agree with the recursive walk and with
        # linear search over the updated ruleset on a fresh trace.
        packets = self._packets(built_tree.ruleset)
        compiled = compiled_after.classify_batch(packets)
        for packet, got in zip(packets, compiled):
            walked, _ = reference_walk.tree_walk(built_tree, packet)
            linear = built_tree.ruleset.classify(packet)
            assert (got.priority if got else None) \
                == (walked.priority if walked else None) \
                == (linear.priority if linear else None)
        # And the removed rule no longer wins anywhere.
        assert all(m is None or m.priority != victim.priority for m in compiled)

    def test_flow_cache_does_not_serve_stale_results(self, built_tree):
        classifier = TreeClassifier(built_tree.ruleset, [built_tree])
        new_rule = Rule.from_fields(dst_port=(6666, 6667), priority=10 ** 6,
                                    name="late")
        packet = built_tree.ruleset.sample_matching_packet(new_rule)
        compiled = classifier.compile(flow_cache_size=64)
        # Warm the cache with the pre-update result for this flow.
        compiled.classify_batch([packet])

        IncrementalUpdater(built_tree).add_rule(new_rule)
        recompiled = classifier.compile()
        # The recompile preserved the caching configuration but dropped the
        # stale entries: the flow now resolves to the new rule.
        assert recompiled.flow_cache is not None
        [match] = recompiled.classify_batch([packet])
        assert match is not None and match.priority == new_rule.priority


class TestVisualize:
    def test_profile_counts_match_tree(self, built_tree):
        profile = profile_tree(built_tree)
        assert profile.num_nodes == built_tree.num_nodes()
        assert profile.depth == built_tree.depth()
        assert sum(level.num_nodes for level in profile.levels) == profile.num_nodes
        assert profile.levels[0].num_nodes == 1

    def test_cut_dimension_histogram(self, built_tree):
        profile = profile_tree(built_tree)
        total_cuts = sum(
            count
            for level in profile.levels
            for count in level.cut_dimension_counts.values()
        )
        assert total_cuts == sum(1 for _ in built_tree.internal_nodes())
        assert profile.dominant_dimensions(top_k=1) == ["SRC_IP"]

    def test_render_profile_text(self, built_tree):
        text = render_profile(profile_tree(built_tree))
        assert "level" in text and "#" in text

    def test_compare_profiles_series(self, built_tree):
        profiles = [profile_tree(built_tree)] * 3
        series = compare_profiles(profiles)
        assert len(series["depth"]) == 3
        assert series["num_nodes"][0] == built_tree.num_nodes()

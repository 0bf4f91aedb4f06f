"""Tests for Node: applying cuts and partitions, pruning, EffiCuts categories."""

import pytest

from repro.exceptions import InvalidActionError
from repro.rules import Dimension, FIELD_RANGES, FULL_SPACE, Rule
from repro.tree import (
    CutAction,
    EffiCutsPartitionAction,
    MultiCutAction,
    Node,
    PartitionAction,
    SplitAction,
    efficuts_categories,
    remove_redundant_rules,
)


def make_node(rules, ranges=FULL_SPACE, depth=0):
    return Node(ranges=ranges, rules=list(rules), depth=depth)


@pytest.fixture
def mixed_rules():
    return [
        Rule.from_prefixes(src_ip="10.0.0.0/8", priority=4, name="narrow_src"),
        Rule.from_prefixes(dst_ip="192.168.0.0/16", priority=3, name="narrow_dst"),
        Rule.from_fields(dst_port=(80, 81), priority=2, name="http"),
        Rule.wildcard(priority=1, name="default"),
    ]


class TestCut:
    def test_cut_creates_children_that_tile_the_range(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(CutAction(Dimension.SRC_IP, 4))
        assert len(children) == 4
        boundaries = [child.range_for(Dimension.SRC_IP) for child in children]
        assert boundaries[0][0] == 0
        assert boundaries[-1][1] == FIELD_RANGES[Dimension.SRC_IP][1]
        for left, right in zip(boundaries, boundaries[1:]):
            assert left[1] == right[0]

    def test_children_inherit_intersecting_rules(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(CutAction(Dimension.SRC_IP, 4))
        # The wildcard and dst-based rules intersect every child.
        for child in children:
            names = {rule.name for rule in child.rules}
            assert "default" in names
        # The narrow source rule (10.0.0.0/8) only lands in the first child.
        first_names = {rule.name for rule in children[0].rules}
        assert "narrow_src" in first_names
        for child in children[1:]:
            assert "narrow_src" not in {rule.name for rule in child.rules}

    def test_child_depth_increments(self, mixed_rules):
        node = make_node(mixed_rules, depth=3)
        children = node.apply(CutAction(Dimension.DST_IP, 2))
        assert all(child.depth == 4 for child in children)

    def test_double_apply_rejected(self, mixed_rules):
        node = make_node(mixed_rules)
        node.apply(CutAction(Dimension.SRC_IP, 2))
        with pytest.raises(InvalidActionError):
            node.apply(CutAction(Dimension.SRC_IP, 2))

    def test_cut_narrower_than_requested(self):
        # A protocol range of width 2 cannot be cut into 8 pieces.
        rules = [Rule.from_fields(protocol=(6, 7)), Rule.from_fields(protocol=(7, 8))]
        box = list(FULL_SPACE)
        box[int(Dimension.PROTOCOL)] = (6, 8)
        node = make_node(rules, ranges=tuple(box))
        children = node.apply(CutAction(Dimension.PROTOCOL, 8))
        assert len(children) == 2

    def test_cut_on_width_one_range_rejected(self):
        box = list(FULL_SPACE)
        box[int(Dimension.PROTOCOL)] = (6, 7)
        node = make_node([Rule.wildcard()], ranges=tuple(box))
        with pytest.raises(InvalidActionError):
            node.apply(CutAction(Dimension.PROTOCOL, 2))

    def test_multicut_children_count(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(
            MultiCutAction(cuts=((Dimension.SRC_IP, 2), (Dimension.DST_IP, 2)))
        )
        assert len(children) == 4

    def test_split_action(self, mixed_rules):
        node = make_node(mixed_rules)
        midpoint = 1 << 31
        children = node.apply(SplitAction(Dimension.SRC_IP, midpoint))
        assert len(children) == 2
        assert children[0].range_for(Dimension.SRC_IP) == (0, midpoint)
        assert children[1].range_for(Dimension.SRC_IP) == (midpoint, 1 << 32)

    def test_split_outside_range_rejected(self, mixed_rules):
        box = list(FULL_SPACE)
        box[int(Dimension.SRC_PORT)] = (100, 200)
        node = make_node(mixed_rules, ranges=tuple(box))
        with pytest.raises(InvalidActionError):
            node.apply(SplitAction(Dimension.SRC_PORT, 500))


class TestPartition:
    def test_simple_partition_splits_by_coverage(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(PartitionAction(Dimension.SRC_IP, 0.5))
        assert len(children) == 2
        small, large = children
        assert {r.name for r in small.rules} == {"narrow_src"}
        assert {r.name for r in large.rules} == {"narrow_dst", "http", "default"}
        # Rule counts are preserved exactly (no replication).
        assert small.num_rules + large.num_rules == node.num_rules

    def test_partition_children_keep_parent_box(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(PartitionAction(Dimension.SRC_IP, 0.5))
        for child in children:
            assert child.ranges == node.ranges

    def test_partition_state_updated(self, mixed_rules):
        node = make_node(mixed_rules)
        small, large = node.apply(PartitionAction(Dimension.SRC_IP, 0.64))
        dim = int(Dimension.SRC_IP)
        assert small.partition_state[dim][1] <= large.partition_state[dim][0]

    def test_useless_partition_rejected(self):
        rules = [Rule.wildcard(priority=1), Rule.wildcard(priority=0, name="d2")]
        node = make_node(rules)
        with pytest.raises(InvalidActionError):
            node.apply(PartitionAction(Dimension.SRC_IP, 0.5))

    def test_efficuts_partition_groups_by_shape(self, mixed_rules):
        node = make_node(mixed_rules)
        children = node.apply(EffiCutsPartitionAction(largeness_threshold=0.5))
        assert len(children) >= 2
        assert sum(child.num_rules for child in children) == len(mixed_rules)
        categories = {child.efficuts_category for child in children}
        assert len(categories) == len(children)


class TestHelpers:
    def test_efficuts_categories_bitmask(self):
        narrow_everywhere = Rule.from_fields(
            src_ip=(0, 256), dst_ip=(0, 256), src_port=(80, 81),
            dst_port=(80, 81), protocol=(6, 7),
        )
        ip_specific = Rule.from_prefixes(src_ip="10.0.0.0/8", dst_ip="10.0.0.0/8")
        buckets = efficuts_categories(
            [narrow_everywhere, ip_specific, Rule.wildcard()], 0.5
        )
        # Small in every dimension -> category 0.
        assert narrow_everywhere in buckets[0]
        # Small IPs but wildcard ports/protocol -> bits 2, 3 and 4 set.
        assert ip_specific in buckets[0b11100]
        # Large in every dimension -> all five bits set.
        assert Rule.wildcard() in buckets[0b11111]

    def test_remove_redundant_rules_drops_shadowed(self):
        high = Rule.from_fields(dst_port=(0, 1024), priority=5, name="high")
        shadowed = Rule.from_fields(dst_port=(80, 81), priority=1, name="low")
        kept = remove_redundant_rules([high, shadowed], FULL_SPACE)
        assert kept == [high]

    def test_remove_redundant_keeps_higher_priority_specific(self):
        specific = Rule.from_fields(dst_port=(80, 81), priority=5, name="high")
        broad = Rule.from_fields(dst_port=(0, 1024), priority=1, name="low")
        kept = remove_redundant_rules([specific, broad], FULL_SPACE)
        assert kept == [specific, broad]

    def test_is_terminal_respects_threshold_and_forced(self, mixed_rules):
        node = make_node(mixed_rules)
        assert node.is_terminal(leaf_threshold=4)
        assert not node.is_terminal(leaf_threshold=2)
        node.forced_leaf = True
        assert node.is_terminal(leaf_threshold=2)

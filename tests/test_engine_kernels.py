"""The fused forest walk against the per-packet reference walk.

``tests/reference_walk.py`` descends one packet at a time through one tree's
node records and folds the trees in order; the engine's level-synchronous
walk must return the same leaves, the same leaf-rule rows and the same match
indices, byte for byte — and both must refuse a tree deeper than it says.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference_walk
from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import CompiledClassifier, FlatTree, packets_to_array
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import CutAction, DecisionTree, TreeClassifier


@pytest.fixture(scope="module")
def single_tree():
    ruleset = generate_classifier("acl1", 120, seed=3)
    classifier = HiCutsBuilder(binth=8).build(ruleset)
    packets = ruleset.sample_packets(600, seed=7, rule_bias=0.8)
    return classifier, packets_to_array(packets)


@pytest.fixture(scope="module")
def multi_tree():
    ruleset = generate_classifier("fw1", 120, seed=0)
    classifier = EffiCutsBuilder(binth=8).build(ruleset)
    packets = ruleset.sample_packets(600, seed=7, rule_bias=0.8)
    return classifier, packets_to_array(packets)


class TestKernelExactness:
    @pytest.mark.parametrize("fixture", ["single_tree", "multi_tree"])
    def test_per_tree_descend_and_lookup_match_numpy(self, fixture, request):
        classifier, values = request.getfixturevalue(fixture)
        for tree in classifier.compile().subtrees:
            np.testing.assert_array_equal(
                reference_walk.descend(tree, values), tree.descend(values))
            np.testing.assert_array_equal(
                reference_walk.lookup_rows(tree, values), tree.lookup(values))

    @pytest.mark.parametrize("fixture", ["single_tree", "multi_tree"])
    def test_match_indices_byte_identical(self, fixture, request):
        classifier, values = request.getfixturevalue(fixture)
        compiled = classifier.compile()
        np.testing.assert_array_equal(
            reference_walk.match_indices(compiled, values),
            compiled.match_indices(values))

    def test_empty_batch(self, single_tree):
        classifier, _ = single_tree
        compiled = classifier.compile()
        empty = packets_to_array([])
        tree = compiled.subtrees[0]
        assert tree.descend(empty).shape == (0,)
        assert tree.lookup(empty).shape == (0,)
        assert reference_walk.lookup_rows(tree, empty).shape == (0,)
        assert compiled.match_indices(empty).shape == (0,)
        assert reference_walk.match_indices(compiled, empty).shape == (0,)
        assert compiled.classify_batch([]) == []

    def test_all_miss_batch(self):
        # Every rule pins protocol 6; UDP packets must miss on both walks
        # (no default wildcard rule to fall back to).
        rules = [
            Rule.from_fields(src_ip=(i * 16, (i + 1) * 16), protocol=(6, 7),
                             priority=i + 1, name=f"r{i}")
            for i in range(8)
        ]
        ruleset = RuleSet(rules, name="tcp-only")
        tree = DecisionTree(ruleset, leaf_threshold=2, prune_redundant=False)
        tree.apply_action(CutAction(dimension=Dimension.SRC_IP, num_cuts=4))
        tree.truncate()
        compiled = TreeClassifier(ruleset, [tree]).compile()
        misses = packets_to_array(
            [Packet(i * 16, 0, 0, 0, 17) for i in range(8)])
        reference = compiled.match_indices(misses)
        assert (reference == -1).all()
        np.testing.assert_array_equal(
            reference_walk.match_indices(compiled, misses), reference)
        assert compiled.classify_batch(misses) == [None] * len(misses)


class TestDepthOverrun:
    @pytest.fixture()
    def corrupt_tree(self, single_tree):
        classifier, values = single_tree
        tree = classifier.compile().subtrees[0]
        assert tree.depth >= 2, "fixture tree too shallow to under-declare"
        # Same block, recorded depth of zero: a well-formed descent now
        # exceeds the declared bound, which both walks must refuse.
        return dataclasses.replace(tree, depth=0), values

    @pytest.mark.parametrize(
        "descend", [FlatTree.descend, reference_walk.descend],
        ids=["numpy", "reference"])
    def test_descend_overrun_raises(self, corrupt_tree, descend):
        tree, values = corrupt_tree
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            descend(tree, values)

    @pytest.mark.parametrize(
        "lookup", [FlatTree.lookup, reference_walk.lookup_rows],
        ids=["numpy", "reference"])
    def test_lookup_overrun_raises(self, corrupt_tree, lookup):
        tree, values = corrupt_tree
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            lookup(tree, values)

    def test_match_into_overrun_raises(self, corrupt_tree, single_tree):
        """The fold over a classifier's trees refuses the corrupt tree too."""
        tree, values = corrupt_tree
        corrupt = CompiledClassifier(
            [tree], rules=single_tree[0].compile().rules)
        for match in (corrupt.match_indices,
                      lambda v: reference_walk.match_indices(corrupt, v)):
            with pytest.raises(RuntimeError,
                               match="deeper than its recorded depth"):
                match(values)

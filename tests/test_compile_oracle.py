"""The one-pass compile against the three-step compile it replaced.

``reference_compile`` expands partitions, normalises the tree into
intermediate objects and flattens those, looking every leaf-rule reference
up by value.  :func:`repro.engine.compile_classifier` and
:func:`repro.engine.compile_tree` walk the tree model once and slot rules by
identity; they must lay out byte for byte the same engine: every column of
the three tables, the same rule objects in the same order, every
``FlatTree`` field and the same provenance.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import reference_compile
from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
)
from repro.classbench import generate_classifier
from repro.engine import compile_classifier, compile_tree
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from test_property_based import _WALK_BUILDERS, _WORKLOAD_BUILDERS

_BASELINES = {
    "HiCuts": HiCutsBuilder(binth=8).build,
    "HyperCuts": HyperCutsBuilder(binth=8).build,
    "EffiCuts": EffiCutsBuilder(binth=8).build,
    "CutSplit": CutSplitBuilder(binth=8).build,
}
_SHAPES = {
    "CutSplit": _WALK_BUILDERS["CutSplit"],  # split rows
    "partition-below-cut": _WALK_BUILDERS["partition-below-cut"],  # clones
    "root-partition": _WORKLOAD_BUILDERS["root-partition"],
}
_TREE_FIELDS = ("node_offset", "num_nodes", "rule_offset", "num_leaf_rules",
                "depth", "max_leaf_span")


def _assert_same_trees(got, want):
    """Two lists of ``FlatTree`` views: equal fields, equal forests."""
    assert [tuple(getattr(t, name) for name in _TREE_FIELDS) for t in got] \
        == [tuple(getattr(t, name) for name in _TREE_FIELDS) for t in want]
    assert all(tree.forest is got[0].forest for tree in got)
    for table in ("node", "rule", "table"):
        mine, theirs = getattr(got[0].forest, table), \
            getattr(want[0].forest, table)
        assert mine.keys() == theirs.keys()
        for name, column in mine.items():
            assert column.dtype == theirs[name].dtype, (table, name)
            assert column.shape == theirs[name].shape, (table, name)
            assert column.tobytes() == theirs[name].tobytes(), (table, name)


def _assert_same_engine(got, want):
    _assert_same_trees(got.subtrees, want.subtrees)
    assert got.subtrees[0].forest is got.forest
    assert len(got.rules) == len(want.rules)
    assert all(a is b for a, b in zip(got.rules, want.rules))
    mine, theirs = got.provenance, want.provenance
    assert len(mine.leaves) == len(theirs.leaves)
    assert all(a is b for a, b in zip(mine.leaves, theirs.leaves))
    assert mine.rule_slot == theirs.rule_slot
    assert list(mine.rule_slot.values()) == list(theirs.rule_slot.values())
    assert mine.trees == theirs.trees and mine.versions == theirs.versions


def _assert_same_compile(classifier):
    _assert_same_engine(compile_classifier(classifier),
                        reference_compile.compile_classifier(classifier))
    # Per tree, alone and through one rule pool shared across the trees.
    pool, reference_pool = ({}, []), ({}, [])
    for tree in classifier.trees:
        _assert_same_trees(compile_tree(tree),
                           reference_compile.compile_tree(tree))
        _assert_same_trees(compile_tree(tree, *pool),
                           reference_compile.compile_tree(tree, *reference_pool))
        assert pool[0] == reference_pool[0]
        assert all(a is b for a, b in zip(pool[1], reference_pool[1]))


@pytest.mark.parametrize("family", ["acl1", "fw1", "ipc1", "fw5"])
@pytest.mark.parametrize("num_rules", [40, 160])
@pytest.mark.parametrize("builder", sorted(_BASELINES))
def test_baseline_engines_are_byte_identical(builder, num_rules, family):
    ruleset = generate_classifier(family, num_rules, seed=num_rules)
    _assert_same_compile(_BASELINES[builder](ruleset))


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_and_partition_shapes_are_byte_identical(shape, seed):
    ruleset = generate_classifier(["acl1", "fw1", "ipc1"][seed], 60,
                                  seed=seed)
    classifier = _SHAPES[shape](ruleset)
    _assert_same_compile(classifier)
    if shape != "CutSplit":
        assert compile_classifier(classifier).num_subtrees > 1


def test_trained_neurocuts_tree_is_byte_identical():
    ruleset = generate_classifier("acl1", 60, seed=5)
    config = NeuroCutsConfig.fast_test_config(
        max_timesteps_total=600, timesteps_per_batch=300,
        partition_mode="simple", seed=1)
    _assert_same_compile(
        NeuroCutsTrainer(ruleset, config).train().best_classifier())


def _scrambled(classifier, seed):
    """``classifier`` with every leaf's rule list out of priority order and
    some rules held as equal copies: beside their original in the same
    leaf, or in its place elsewhere.  Equal rules must share one slot,
    and the first object met in a leaf's priority order must own it."""
    rng = random.Random(seed)
    for tree in classifier.trees:
        for leaf in tree.leaves():
            rules = list(leaf.rules)
            for i, rule in enumerate(list(rules)):
                if rng.random() < 0.2:
                    rules[i] = dataclasses.replace(rule)
                elif rng.random() < 0.1:
                    rules.insert(rng.randrange(len(rules) + 1),
                                 dataclasses.replace(rule))
            rng.shuffle(rules)
            leaf.rules = rules
    return classifier


@pytest.mark.parametrize("builder", ["HiCuts", "EffiCuts", "CutSplit",
                                     "partition-below-cut"])
@pytest.mark.parametrize("seed", [0, 1])
def test_leaf_order_and_equal_rules_are_byte_identical(builder, seed):
    ruleset = generate_classifier(["fw1", "acl1"][seed], 120, seed=seed)
    build = {**_BASELINES, **_SHAPES}[builder]
    classifier = _scrambled(build(ruleset), seed)
    _assert_same_compile(classifier)
    engine = compile_classifier(classifier)
    assert len(engine.rules) == len(set(engine.rules)) \
        == len(engine.provenance.rule_slot)


def test_compile_tree_takes_a_rule_pool_whole_or_not_at_all():
    # A slot map without the rule list it indexes used to build a forest
    # whose distinct-rule table had no rows for its leaves' slots; it
    # failed only at the first lookup, with a bare IndexError.
    classifier = HiCutsBuilder(binth=8).build(
        generate_classifier("acl1", 60, seed=0))
    tree = classifier.trees[0]
    rule_slot, rules_out = {}, []
    compile_tree(tree, rule_slot, rules_out)
    assert len(rules_out) == len(rule_slot) > 0
    with pytest.raises(ValueError, match="rule pool"):
        compile_tree(tree, rule_slot)
    with pytest.raises(ValueError, match="rule pool"):
        compile_tree(tree, rules_out=rules_out)
    # The whole pool still works, and reuses its slots.
    before = len(rules_out)
    (flat,) = compile_tree(tree, rule_slot, rules_out)
    assert len(rules_out) == before
    assert len(flat.forest.table["priority"]) == before

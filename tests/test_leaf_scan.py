"""The leaf scan's two forms, on both sides of the row count that picks one.

:meth:`repro.engine.Forest.lookup` tests the reached leaf spans in one pass
when they hold at most ``_ONE_PASS_ROWS`` rows together, and in lock-step
otherwise.  Every case here walks a batch whose spans hold just under that
count and the same batch plus one packet, which holds just over it; each
batch is walked in both forms (forced by patching the constant) and held,
leaf-rule row for leaf-rule row, to the per-packet reference walk, and the
engine's own ``match_indices`` is held to the reference's answers.
"""

from __future__ import annotations

import numpy as np

import reference_walk
from repro.baselines import CutSplitBuilder, EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import (
    CompiledClassifier,
    compile_classifier,
    compile_tree,
    layout,
    packets_to_array,
    partial_compile_classifier,
)
from repro.engine.layout import check_headers
from repro.neurocuts import IncrementalUpdater
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import CutAction, DecisionTree

#: Limits that force each form whatever the batch.
FORCED = {"one pass": 1 << 62, "lock-step": -1}


def _walk_arguments(compiled):
    trees = compiled.subtrees
    return (np.array([t.node_offset for t in trees]),
            np.array([t.rule_offset for t in trees]),
            np.array([t.depth for t in trees]))


def _spans(compiled, values):
    """``(first row, count)`` of the span every lane reaches (tree-major)."""
    node_base, rule_base, depth = _walk_arguments(compiled)
    node = compiled.forest.node
    leaf = compiled.forest.descend(values, node_base, depth)
    return (np.repeat(rule_base, len(values)) + node["start"][leaf],
            node["count"][leaf].astype(np.int64))


def _straddle(compiled, pool):
    """The longest prefix of ``pool`` whose spans take the one-pass form,
    and that prefix plus one packet, which takes lock-step."""
    _, count = _spans(compiled, check_headers(pool))
    rows = np.cumsum(count.reshape(compiled.num_subtrees, -1).sum(axis=0))
    under = int(np.searchsorted(rows, layout._ONE_PASS_ROWS, side="right"))
    assert 0 < under < len(pool), "the pool does not cross the limit"
    assert rows[under - 1] <= layout._ONE_PASS_ROWS < rows[under]
    return pool[:under], pool[:under + 1]


def _reference_rows(compiled, values):
    """Absolute leaf-rule row of every lane by the per-packet walk."""
    return np.concatenate([
        np.where(rows >= 0, rows + tree.rule_offset, -1)
        for tree, rows in ((tree, reference_walk.lookup_rows(tree, values))
                           for tree in compiled.subtrees)])


def _check_both_forms(compiled, batch, monkeypatch):
    """Both forms return the reference's rows on ``batch``; returns them."""
    values = check_headers(batch)
    want = _reference_rows(compiled, values)
    for limit in FORCED.values():
        monkeypatch.setattr(layout, "_ONE_PASS_ROWS", limit)
        rows = compiled.forest.lookup(values, *_walk_arguments(compiled))
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()
    monkeypatch.undo()
    assert compiled.match_indices(batch).tobytes() == \
        reference_walk.match_indices(compiled, values).tobytes()
    return want


def _check_straddle(compiled, pool, monkeypatch):
    """Both sides of the limit, both forms; returns each side's
    ``(values, rows)``."""
    sides = []
    for batch in _straddle(compiled, pool):
        sides.append((check_headers(batch),
                      _check_both_forms(compiled, batch, monkeypatch)))
    return sides


def test_efficuts_multi_tree_engine_with_empty_leaves(monkeypatch):
    ruleset = generate_classifier("fw1", 300, seed=3)
    compiled = compile_classifier(EffiCutsBuilder(binth=8).build(ruleset))
    assert compiled.num_subtrees > 1
    pool = packets_to_array(ruleset.sample_packets(2000, seed=1,
                                                   rule_bias=0.5))
    for values, rows in _check_straddle(compiled, pool, monkeypatch):
        _, count = _spans(compiled, values)
        assert (count == 0).any()  # empty leaves: count == 0 lanes
        assert (rows >= 0).any()


def test_cutsplit_split_rows(monkeypatch):
    ruleset = generate_classifier("acl1", 300, seed=3)
    compiled = compile_classifier(CutSplitBuilder(binth=8).build(ruleset))
    assert compiled.forest.has_split
    pool = packets_to_array(ruleset.sample_packets(1000, seed=2,
                                                   rule_bias=0.8))
    _check_straddle(compiled, pool, monkeypatch)


def test_first_hit_on_the_last_row_of_its_span(monkeypatch):
    ruleset = generate_classifier("acl1", 200, seed=3)
    compiled = compile_classifier(HiCutsBuilder(binth=8).build(ruleset))
    pool = packets_to_array(ruleset.sample_packets(2000, seed=4,
                                                   rule_bias=0.8))
    for values, rows in _check_straddle(compiled, pool, monkeypatch):
        start, count = _spans(compiled, values)
        last = (count > 1) & (rows == start + count - 1)
        assert last.any()


def test_all_miss_batch(monkeypatch):
    ruleset = generate_classifier("acl1", 200, seed=3)
    # Without the default rule, uniform headers match nothing.
    narrow = RuleSet([rule for rule in ruleset.rules
                      if rule.num_wildcard_dims() < len(Dimension)])
    compiled = compile_classifier(HiCutsBuilder(binth=8).build(narrow))
    pool = packets_to_array(narrow.sample_packets(3000, seed=1,
                                                  rule_bias=0.0))
    pool = pool[compiled.match_indices(pool) < 0]
    for values, rows in _check_straddle(compiled, pool, monkeypatch):
        assert (rows == -1).all()
        assert _spans(compiled, values)[1].sum() > 0  # rows were tested


def test_partially_recompiled_spans_past_their_block(monkeypatch):
    ruleset = generate_classifier("acl1", 120, seed=3)
    classifier = HiCutsBuilder(binth=8).build(ruleset)
    previous = compile_classifier(classifier)
    old_end = len(previous.forest.rule["rule_index"])
    # Rules exactly covering the widest leaf's box land in it alone, above
    # every rule it held, so its span is re-spanned past every block.
    leaf = max(classifier.trees[0].leaves(), key=lambda n: len(n.rules))
    top = max(rule.priority for rule in ruleset.rules)
    adds = [Rule(ranges=leaf.ranges, priority=top + 1 + i, name=f"wide{i}")
            for i in range(len(leaf.rules))]
    updater = IncrementalUpdater(classifier.trees[0])
    for rule in adds:
        updater.add_rule(rule)
    classifier.ruleset = classifier.ruleset.with_rules_added(adds)
    result = partial_compile_classifier(classifier, previous,
                                        [updater.take_touched()])
    assert not result.full_rebuild
    engine = result.classifier
    inside = Packet.from_values(tuple(lo for lo, _ in leaf.ranges))
    sampled = classifier.ruleset.sample_packets(1500, seed=5, rule_bias=0.8)
    # The re-spanned leaf is reached throughout the pool.
    pool = packets_to_array([p for pair in zip(sampled, [inside] * 1500)
                             for p in pair])
    for values, rows in _check_straddle(engine, pool, monkeypatch):
        start, _ = _spans(engine, values)
        assert (start >= old_end).any() and (rows >= old_end).any()


def test_equal_priorities_across_trees_earlier_tree_wins(monkeypatch):
    # Two trees whose answers for the probe are different rules of equal
    # priority ("filler" makes the first tree worth cutting).
    first = Rule.from_fields(src_ip=(0, 1 << 31), priority=7, name="a")
    filler = Rule.from_fields(src_ip=(1 << 31, 1 << 32), dst_port=(9, 10),
                              priority=1, name="filler")
    second = Rule.from_fields(dst_port=(0, 1024), priority=7, name="b")
    rule_slot, rules, flats = {}, [], []
    for tree_rules in ([first, filler], [second]):
        tree = DecisionTree(RuleSet(tree_rules), leaf_threshold=1,
                            prune_redundant=False)
        if not tree.is_complete():
            tree.apply_action(CutAction(Dimension.SRC_IP, 4))
        tree.truncate()
        flats.extend(compile_tree(tree, rule_slot, rules))
    probe = Packet(5, 0, 0, 80, 6)
    pool = packets_to_array([probe] * 4096)
    for order, winner in ((flats, "a"), (flats[::-1], "b")):
        compiled = CompiledClassifier(subtrees=order, rules=rules)
        for batch in _straddle(compiled, pool):
            _check_both_forms(compiled, batch, monkeypatch)
            assert {rules[i].name for i in compiled.match_indices(batch)} \
                == {winner}

"""Rule edits by priority bisect, held to the list-scan edits they replace.

Node rule lists and rulesets are kept highest priority first, so the rules
equal to a given one all sit in its priority's run: ``Node.insert_rule`` /
``Node.discard_rule``, ``RuleSet`` membership and removal, and the updater's
coverer checks look only there.  Three layers:

* single edits — equal-priority runs, equal-but-distinct rules, absent
  rules, placement after equal-priority rules — against
  :mod:`reference_updates`' scans, by example and by hypothesis;
* rulesets — ``with_changes``, ``with_rules_added`` / ``with_rules_removed``
  and ``in`` against the scan forms;
* whole trees — a removal-and-insertion sweep over HiCuts, EffiCuts and
  CutSplit trees in which every node's rule list, every return value and
  every tally equals :class:`reference_updates.ReferenceUpdater`'s.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_updates import (
    ReferenceUpdater,
    scan_discard,
    scan_insert,
    scan_with_rules_added,
    scan_with_rules_removed,
)
from repro.baselines import CutSplitBuilder, EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.neurocuts import IncrementalUpdater
from repro.rules import DIMENSIONS, FIELD_RANGES, Rule, RuleSet
from repro.rules.fields import range_overlap
from repro.rules.rule import find_rule, rank_above
from repro.tree.node import Node

FULL = tuple(FIELD_RANGES[d] for d in DIMENSIONS)


def _rule(port, priority, name=""):
    return Rule.from_fields(dst_port=(port, port + 1), priority=priority,
                            name=name)


def _twin(rule):
    """Equal to ``rule`` but not the same object."""
    return Rule(ranges=rule.ranges, priority=rule.priority, name=rule.name)


def _node(rules):
    return Node(ranges=FULL, rules=list(rules))


def _ids(rules):
    return [id(rule) for rule in rules]


# --------------------------------------------------------------------- #
# Single edits
# --------------------------------------------------------------------- #


class TestNodeEdits:
    def test_insert_goes_after_equal_priority_run(self):
        held = [_rule(1, 5), _rule(2, 3), _rule(3, 3), _rule(4, 3),
                _rule(5, 1)]
        node, reference = _node(held), list(held)
        new = _rule(9, 3)
        assert node.insert_rule(new)
        assert scan_insert(reference, new)
        assert node.rules.index(new) == 4
        assert _ids(node.rules) == _ids(reference)

    def test_insert_at_either_end(self):
        node = _node([_rule(1, 5), _rule(2, 3)])
        top, bottom = _rule(7, 9), _rule(8, 0)
        assert node.insert_rule(bottom) and node.insert_rule(top)
        assert node.rules[0] is top and node.rules[-1] is bottom

    def test_equal_but_distinct_rule_counts_as_held(self):
        held = [_rule(1, 5), _rule(2, 3, "x"), _rule(3, 3, "y")]
        node = _node(held)
        twin = _twin(held[2])
        assert twin is not held[2]
        assert not node.insert_rule(twin)
        assert node.rules == held
        # Discarding the twin drops the held rule it equals.
        assert node.discard_rule(twin)
        assert _ids(node.rules) == _ids(held[:2])

    def test_discarding_an_absent_rule_changes_nothing(self):
        held = [_rule(1, 5), _rule(2, 3)]
        node = _node(held)
        rows = node._rows
        # Same priority as a held rule, other box; and a fresh priority.
        assert not node.discard_rule(_rule(9, 3))
        assert not node.discard_rule(_rule(9, 4))
        assert _ids(node.rules) == _ids(held)
        assert node._rows is rows

    def test_find_rule_and_rank_above(self):
        rules = [_rule(1, 5), _rule(2, 3), _rule(3, 3), _rule(4, 1)]
        assert find_rule(rules, _twin(rules[2])) == 2
        assert find_rule(rules, rules[0]) == 0
        # Absent: ~position just past its priority's run.
        assert ~find_rule(rules, _rule(9, 3)) == 3
        assert ~find_rule(rules, _rule(9, 4)) == 1
        assert ~find_rule(rules, _rule(9, 0)) == 4
        assert [rank_above(rules, p) for p in (6, 5, 4, 3, 2, 1, 0)] == \
            [0, 0, 1, 1, 3, 3, 4]

    @given(
        boxes=st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                       max_size=12, unique=True),
        priorities=st.lists(st.sampled_from([1, 2, 3, 5, 8]), min_size=12,
                            max_size=12),
        start=st.lists(st.booleans(), min_size=12, max_size=12),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 11),
                               st.booleans()), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_edit_sequences_match_the_scans(self, boxes, priorities, start,
                                            ops):
        pool = [_rule(port, priority, f"r{port}")
                for port, priority in zip(boxes, priorities)]
        held = sorted((rule for rule, keep in zip(pool, start) if keep),
                      key=lambda r: -r.priority)
        node, reference = _node(held), list(held)
        for insert, which, twin in ops:
            rule = pool[which % len(pool)]
            if twin:
                rule = _twin(rule)
            if insert:
                assert node.insert_rule(rule) == scan_insert(reference, rule)
            else:
                assert node.discard_rule(rule) == \
                    scan_discard(reference, rule)
            assert _ids(node.rules) == _ids(reference)
            probe = pool[which % len(pool)]
            index = find_rule(node.rules, probe)
            if probe in reference:
                assert index == reference.index(probe)
            else:
                assert index < 0
            assert rank_above(node.rules, probe.priority) == sum(
                r.priority > probe.priority for r in reference)

    @given(a=st.tuples(*[st.tuples(st.integers(0, 9), st.integers(1, 5))
                         for _ in DIMENSIONS]),
           b=st.tuples(*[st.tuples(st.integers(0, 9), st.integers(1, 5))
                         for _ in DIMENSIONS]))
    def test_intersects_is_range_overlap_in_every_dimension(self, a, b):
        def box(spec):
            return tuple((lo, lo + width) for lo, width in spec)
        rule = Rule(ranges=box(a))
        assert rule.intersects(box(b)) == all(
            range_overlap(mine, other)
            for mine, other in zip(rule.ranges, box(b)))


# --------------------------------------------------------------------- #
# Rulesets
# --------------------------------------------------------------------- #


class TestRuleSetEdits:
    @given(
        size=st.integers(min_value=2, max_value=20),
        removed=st.lists(st.integers(0, 25), max_size=6),
        added=st.lists(st.tuples(st.integers(40, 60), st.integers(0, 40)),
                       max_size=4),
        twins=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_with_changes_matches_the_scans(self, size, removed, added,
                                            twins):
        ruleset = RuleSet([_rule(i, 3 * i + 1, f"r{i}")
                           for i in range(size)])
        rules = ruleset.rules
        gone = [rules[i] if i < size else _rule(i, 3 * i + 1, f"r{i}")
                for i in removed]
        if twins:
            gone = [_twin(rule) for rule in gone]
        new = [_rule(port, priority, f"n{port}") for port, priority in added]
        for rule in gone:
            assert (rule in ruleset) == (rule in rules)
        if len({rule for rule in gone if rule in rules}) == size:
            with pytest.raises(Exception):
                ruleset.with_changes(new, gone)
            return
        expected = scan_with_rules_added(
            scan_with_rules_removed(ruleset, gone), new)
        changed = ruleset.with_changes(new, gone)
        assert changed.rules == expected.rules
        assert [r.name for r in changed] == [r.name for r in expected]
        assert ruleset.with_rules_added(new).rules == \
            scan_with_rules_added(ruleset, new).rules
        assert ruleset.with_rules_removed(gone).rules == \
            scan_with_rules_removed(ruleset, gone).rules


# --------------------------------------------------------------------- #
# Whole trees
# --------------------------------------------------------------------- #


def _assert_same_trees(trees, reference_trees):
    for tree, reference in zip(trees, reference_trees):
        nodes, reference_nodes = list(tree.nodes()), list(reference.nodes())
        assert len(nodes) == len(reference_nodes)
        for node, reference_node in zip(nodes, reference_nodes):
            assert node.rules == reference_node.rules
            assert [r.priority for r in node.rules] == \
                [r.priority for r in reference_node.rules]
        assert tree.ruleset.rules == reference.ruleset.rules
        assert tree.version == reference.version


@pytest.mark.parametrize("builder", [HiCutsBuilder(binth=8),
                                     EffiCutsBuilder(binth=8),
                                     CutSplitBuilder(binth=8)],
                         ids=["HiCuts", "EffiCuts", "CutSplit"])
@pytest.mark.parametrize("family", ["acl1", "fw5"])
def test_update_sweep_matches_the_list_scan_updater(builder, family):
    """Remove most rules of a tree (and add fresh ones between), one event
    at a time, through both updaters: after every event every node's rule
    list, the tallies and the ruleset are the reference's."""
    ruleset = generate_classifier(family, 80, seed=3)
    classifier = builder.build(ruleset)
    # Two copies: the rules the events name are equal to theirs, never
    # the same objects.
    trees = pickle.loads(pickle.dumps(classifier.trees))
    reference_trees = pickle.loads(pickle.dumps(classifier.trees))
    updaters = [IncrementalUpdater(tree) for tree in trees]
    references = [ReferenceUpdater(tree) for tree in reference_trees]
    for tree, reference in zip(trees, reference_trees):
        for node in tree.nodes():
            assert [r.priority for r in node.rules] == sorted(
                (r.priority for r in node.rules), reverse=True)

    rng = random.Random(11)
    # A ruleset cannot be emptied: every tree keeps its last rule.
    kept = {tree.ruleset.rules[-1] for tree in classifier.trees}
    order = [rule for rule in ruleset.rules if rule not in kept]
    rng.shuffle(order)
    fresh = generate_classifier(family, 40, seed=4).rules
    top = max(r.priority for r in ruleset)
    fresh = [Rule(ranges=r.ranges, priority=top + 1 + i, name=f"new{i}")
             for i, r in enumerate(fresh)]
    spare, fresh = fresh[:5], fresh[5:]
    events = []
    while order:
        removes = [order.pop() for _ in range(rng.randint(1, 3))
                   if order]
        if rng.random() < 0.3:
            removes.append(_twin(removes[0]))  # already gone: a no-op
        adds = [fresh.pop() for _ in range(rng.randint(0, 2)) if fresh]
        events.append((adds, removes))

    for adds, removes in events:
        touched = [updater.apply(adds=adds if i == 0 else (),
                                 removes=removes)
                   for i, updater in enumerate(updaters)]
        expected = []
        for i, reference in enumerate(references):
            count = sum(reference.remove_rule(rule) for rule in removes)
            if i == 0:
                count += sum(reference.add_rule(rule) for rule in adds)
            expected.append(count)
        assert touched == expected
        _assert_same_trees(trees, reference_trees)
        for updater, reference in zip(updaters, references):
            assert updater.stats == reference.stats
            record, reference_record = (updater.take_touched(),
                                        reference.take_touched())
            assert (record.since, record.until) == \
                (reference_record.since, reference_record.until)
            assert [n.node_id for n in record.leaves] == \
                [n.node_id for n in reference_record.leaves]

    # One-rule forms: the same answers as the reference's.
    for rule in spare:
        assert updaters[0].add_rule(rule) == references[0].add_rule(rule)
        assert [u.remove_rule(rule) for u in updaters] == \
            [r.remove_rule(rule) for r in references]
        _assert_same_trees(trees, reference_trees)

"""The columnar cut path against per-rule references.

``Node.apply`` for cuts, multi-cuts and splits computes child membership and
redundancy pruning as array operations over all children at once.  The
references here are the rule-by-rule loops it replaced, written from the
``Rule`` API (``intersects`` / ``clip_to`` / ``covers``), which the array
code never calls.
"""

from __future__ import annotations

import itertools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HiCutsBuilder
from repro.classbench import generate_classifier
from repro.neurocuts import IncrementalUpdater
from repro.rules import Dimension, Rule, RuleBounds, RuleSet
from repro.rules.fields import FULL_SPACE
from repro.tree import (
    CutAction,
    DecisionTree,
    MultiCutAction,
    Node,
    SplitAction,
    remove_redundant_rules,
)


# --------------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------------- #


def sequential_prune(rules, box):
    """The loop the array pruning replaced: a rule is dropped when a *kept*
    earlier rule's clip covers its clip."""
    kept, clipped_kept = [], []
    for rule in rules:
        clipped = rule.clip_to(box)
        if clipped is None:
            continue
        if any(higher.covers(clipped) for higher in clipped_kept):
            continue
        kept.append(rule)
        clipped_kept.append(clipped)
    return kept


def child_boxes(node, action):
    """The boxes an action cuts a node into, in child order."""
    if isinstance(action, CutAction):
        per_dim = [(action.dimension,
                    node.cut_ranges(action.dimension, action.num_cuts))]
    elif isinstance(action, MultiCutAction):
        per_dim = [(dim, node.cut_ranges(dim, n)) for dim, n in action.cuts]
    else:
        lo, hi = node.range_for(action.dimension)
        per_dim = [(action.dimension,
                    [(lo, action.split_point), (action.split_point, hi)])]
    boxes = []
    for combo in itertools.product(*[subs for _, subs in per_dim]):
        box = list(node.ranges)
        for (dim, _), sub in zip(per_dim, combo):
            box[int(dim)] = sub
        boxes.append(tuple(box))
    return boxes


def reference_children(node, action, prune=True):
    """``(box, rules)`` of every child, rule by rule."""
    children = []
    for box in child_boxes(node, action):
        rules = [r for r in node.rules if r.intersects(box)]
        if prune:
            rules = sequential_prune(rules, box)
        children.append((box, rules))
    return children


def assert_children_match(node, action, prune=True):
    expected = reference_children(node, action, prune)
    children = node.apply(action, prune_redundant=prune)
    assert [(c.ranges, c.rules) for c in children] == expected
    for child in children:
        lo, hi = child.rule_bounds()
        assert lo.tolist() == [[r[0] for r in rule.ranges]
                               for rule in child.rules]
        assert hi.tolist() == [[r[1] for r in rule.ranges]
                               for rule in child.rules]
    return children


# --------------------------------------------------------------------------- #
# (a) Pruning: array form == sequential form
# --------------------------------------------------------------------------- #

#: A small coordinate grid, so boxes coincide, nest and tie all the time.
GRID = 6
_range = st.integers(0, GRID - 1).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, GRID)))
_box = st.tuples(*[_range] * 5)


def _shrink(box, draw):
    """A box inside ``box`` (possibly equal to it)."""
    inner = []
    for lo, hi in box:
        new_lo = draw(st.integers(lo, hi - 1))
        inner.append((new_lo, draw(st.integers(new_lo + 1, hi))))
    return tuple(inner)


@st.composite
def rule_lists(draw):
    """Rules in priority order, seeded with the awkward cases: repeated
    boxes at different priorities, and nested chains a ⊇ b ⊇ c in which the
    middle rule — the only *direct* coverer of the last when the first is
    not adjacent — is itself pruned."""
    boxes = draw(st.lists(_box, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        chain = [draw(st.sampled_from(boxes))]
        for _ in range(draw(st.integers(1, 3))):
            chain.append(_shrink(chain[-1], draw))
        boxes.extend(chain)
    boxes.extend(draw(st.lists(st.sampled_from(boxes), max_size=4)))
    boxes = draw(st.permutations(boxes))
    return [Rule(ranges=box, priority=len(boxes) - i, name=f"r{i}")
            for i, box in enumerate(boxes)]


@settings(max_examples=300, deadline=None)
@given(rules=rule_lists(), box=_box)
def test_array_pruning_equals_sequential_pruning(rules, box):
    assert remove_redundant_rules(rules, box) == sequential_prune(rules, box)


def test_identical_clips_keep_the_earlier_rule():
    # Different rules, same intersection with the box.
    box = ((0, 4),) * 5
    first = Rule(ranges=((0, 6),) + ((0, 4),) * 4, priority=2, name="first")
    second = Rule(ranges=((0, 5),) + ((0, 4),) * 4, priority=1, name="second")
    assert remove_redundant_rules([first, second], box) == [first]
    assert remove_redundant_rules([second, first], box) == [second]


def test_list_order_not_priority_value_breaks_ties():
    box = ((0, 4),) * 5
    a = Rule(ranges=box, priority=0, name="a")
    b = Rule(ranges=box, priority=0, name="b")
    assert remove_redundant_rules([a, b], box) == [a]
    assert remove_redundant_rules([b, a], box) == [b]


def test_rule_covered_only_by_a_pruned_rule_is_still_pruned():
    box = ((0, 6),) * 5
    outer = Rule(ranges=((0, 6),) * 5, priority=3, name="outer")
    middle = Rule(ranges=((1, 5),) * 5, priority=2, name="middle")
    inner = Rule(ranges=((2, 4),) * 5, priority=1, name="inner")
    assert remove_redundant_rules([outer, middle, inner], box) == [outer]
    assert sequential_prune([outer, middle, inner], box) == [outer]


#: ``_DENSE_CELLS`` values that force each form of ``Node._shadowed``:
#: one difference box per nested pair, or every pair against every child.
SHADOW_FORMS = {"boxes": 0, "dense": 1 << 40}


def check_generated_cut(rules, data):
    box = ((0, GRID),) * 5
    dims = data.draw(st.lists(st.sampled_from(list(Dimension)), min_size=1,
                              max_size=3, unique=True))
    if len(dims) == 1 and data.draw(st.booleans()):
        action = SplitAction(dims[0], data.draw(st.integers(1, GRID - 1)))
    elif len(dims) == 1:
        action = CutAction(dims[0], data.draw(st.sampled_from((2, 4, 8))))
    else:
        action = MultiCutAction(tuple(
            (dim, data.draw(st.sampled_from((2, 4)))) for dim in dims))
    assert_children_match(Node(ranges=box, rules=rules), action,
                          prune=data.draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(rules=rule_lists(), data=st.data())
def test_cut_children_equal_reference_on_generated_rules(rules, data):
    check_generated_cut(rules, data)


@pytest.mark.parametrize("form", sorted(SHADOW_FORMS))
@settings(max_examples=150, deadline=None)
@given(rules=rule_lists(), data=st.data())
def test_each_shadowing_form_equals_reference_on_generated_rules(
        form, rules, data):
    from repro.tree import node as node_module

    with mock.patch.object(node_module, "_DENSE_CELLS", SHADOW_FORMS[form]):
        check_generated_cut(rules, data)


# --------------------------------------------------------------------------- #
# (b) Children on generated classifiers
# --------------------------------------------------------------------------- #

CLASSIFIERS = [("acl1", 1000), ("fw1", 150), ("ipc1", 500), ("fw5", 300)]


@pytest.fixture(scope="module", params=CLASSIFIERS,
                ids=lambda p: f"{p[0]}-{p[1]}")
def ruleset(request) -> RuleSet:
    family, size = request.param
    return generate_classifier(family, size, seed=1000)


ACTIONS = [
    CutAction(Dimension.SRC_IP, 32),
    CutAction(Dimension.DST_PORT, 8),
    CutAction(Dimension.PROTOCOL, 4),
    MultiCutAction(((Dimension.SRC_IP, 4), (Dimension.DST_IP, 4))),
    MultiCutAction(((Dimension.DST_IP, 2), (Dimension.SRC_PORT, 2),
                    (Dimension.PROTOCOL, 2))),
    SplitAction(Dimension.DST_IP, 1 << 31),
    SplitAction(Dimension.SRC_PORT, 1024),
]


@pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.describe())
def test_children_equal_reference_two_levels_deep(ruleset, action):
    tree = DecisionTree(ruleset, leaf_threshold=8)
    children = assert_children_match(tree.root, action)
    # Cut the fullest child again: its box is no longer the full space, so
    # clipping to the parent's box in the uncut dimensions now matters.
    fullest = max(children, key=lambda c: c.num_rules)
    assert_children_match(fullest, CutAction(Dimension.DST_IP, 16))


def test_children_without_pruning(ruleset):
    root = DecisionTree(ruleset, leaf_threshold=8).root
    assert_children_match(root, CutAction(Dimension.SRC_IP, 16), prune=False)


def test_rule_subset_trees_map_rules_to_table_rows(ruleset):
    subset = ruleset.rules[::3]
    tree = DecisionTree(ruleset, leaf_threshold=8, rules=subset)
    lo, _ = tree.root.rule_bounds()
    assert lo.tolist() == ruleset.bounds.lo[::3].tolist()
    assert_children_match(tree.root, CutAction(Dimension.SRC_IP, 8))


def test_bare_node_rules_need_no_table():
    rules = [Rule.from_prefixes(src_ip="10.0.0.0/8", priority=0),
             Rule.from_prefixes(src_ip="10.0.0.0/8", priority=0),
             Rule.from_prefixes(src_ip="11.0.0.0/8", priority=0)]
    node = Node(ranges=FULL_SPACE, rules=rules)
    children = assert_children_match(node, CutAction(Dimension.SRC_IP, 64))
    assert sum(child.num_rules for child in children) == 2


# --------------------------------------------------------------------------- #
# Array state: stale-cache guard, equality, pickling, the table itself
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("mutation", ["insert", "discard", "both"])
def test_cut_after_updater_mutation_uses_the_mutated_rules(mutation):
    ruleset = generate_classifier("acl1", 150, seed=1000)
    classifier = HiCutsBuilder(binth=8).build(ruleset)
    tree = classifier.trees[0]
    leaf = max(tree.leaves(), key=lambda n: n.num_rules)
    # The leaf holds array state derived before the update.
    leaf.rule_bounds()
    assert leaf._rows is not None
    updater = IncrementalUpdater(tree)
    if mutation != "discard":
        top = max(r.priority for r in ruleset.rules)
        inside = tuple((lo, min(hi, lo + 2)) for lo, hi in leaf.ranges)
        added = [Rule(ranges=inside, priority=top + 2, name="added_high"),
                 Rule(ranges=leaf.ranges, priority=top + 1, name="added_cover")]
        for rule in added:
            assert updater.add_rule(rule) >= 1
        assert leaf.rules[:2] == added
    if mutation != "insert":
        victim = leaf.rules[-1]
        updater.remove_rule(victim)
        assert victim not in leaf.rules
    lo, _ = leaf.rule_bounds()
    assert lo.tolist() == [[r[0] for r in rule.ranges] for rule in leaf.rules]
    dim = max(Dimension, key=lambda d: leaf.range_for(d)[1]
              - leaf.range_for(d)[0])
    assert_children_match(leaf, CutAction(dim, 4))


def test_pair_comparisons_are_blocked_without_changing_the_result(
        monkeypatch):
    from repro.tree import node as node_module

    ruleset = generate_classifier("fw5", 300, seed=1000)
    whole = DecisionTree(ruleset).root.apply(CutAction(Dimension.SRC_IP, 8))
    # A few rules per block instead of the whole node in one.
    monkeypatch.setattr(node_module, "_PAIR_BLOCK", 5 * len(ruleset) * 7)
    blocked = assert_children_match(DecisionTree(ruleset).root,
                                    CutAction(Dimension.SRC_IP, 8))
    assert [c.rules for c in blocked] == [c.rules for c in whole]
    assert remove_redundant_rules(ruleset.rules, FULL_SPACE) \
        == sequential_prune(ruleset.rules, FULL_SPACE)


@pytest.mark.parametrize("action", [
    CutAction(Dimension.SRC_IP, 8),
    MultiCutAction(((Dimension.SRC_IP, 4), (Dimension.DST_PORT, 4))),
], ids=lambda action: action.describe())
def test_both_shadowing_forms_agree_on_a_large_node(monkeypatch, action):
    from repro.tree import node as node_module

    ruleset = generate_classifier("fw5", 300, seed=1000)
    children = {}
    for form, cells in SHADOW_FORMS.items():
        monkeypatch.setattr(node_module, "_DENSE_CELLS", cells)
        children[form] = assert_children_match(DecisionTree(ruleset).root,
                                               action)
    assert [c.rules for c in children["dense"]] \
        == [c.rules for c in children["boxes"]]


def test_array_state_is_left_out_of_equality_and_repr(small_acl_ruleset):
    bound = DecisionTree(small_acl_ruleset).root
    bound.rule_bounds()
    bare = Node(ranges=bound.ranges, rules=list(bound.rules),
                node_id=bound.node_id)
    assert bound == bare
    assert "_rows" not in repr(bound) and "_bounds" not in repr(bound)


def test_built_trees_pickle_and_can_still_be_cut(small_fw_ruleset):
    tree = HiCutsBuilder(binth=4, max_depth=3).build(small_fw_ruleset).trees[0]
    copy = pickle.loads(pickle.dumps(tree))
    assert [n.rules for n in copy.nodes()] == [n.rules for n in tree.nodes()]
    leaf = max(copy.leaves(), key=lambda n: n.num_rules)
    dim = max(Dimension, key=lambda d: leaf.range_for(d)[1]
              - leaf.range_for(d)[0])
    assert_children_match(leaf, CutAction(dim, 2))


def test_nodes_hold_row_indices_not_copies_of_the_table(small_fw_ruleset):
    table = small_fw_ruleset.bounds
    tree = DecisionTree(small_fw_ruleset, leaf_threshold=4)
    for _ in range(3):
        tree.apply_action(HiCutsBuilder(binth=4).choose_action(
            tree.current_node()))
    waiting = [node for node in tree.nodes()
               if node.is_leaf and not node.is_terminal(4)]
    assert waiting
    for node in tree.nodes():
        assert node._bounds is table
        if node in waiting:
            # Handed over by the cut that made the node.
            assert node._rows.ndim == 1 and len(node._rows) == node.num_rules
            assert table.rules[node._rows[0]] is node.rules[0]
        else:
            # Cut already, or a finished leaf: nothing left to cut with.
            assert node._rows is None
    finished = HiCutsBuilder(binth=4).build(small_fw_ruleset).trees[0]
    assert all(node._rows is None for node in finished.nodes())


def test_bounds_table_rows_follow_priority_order(small_acl_ruleset):
    table = small_acl_ruleset.bounds
    assert table is small_acl_ruleset.bounds  # cached
    assert table.lo.shape == table.hi.shape == (len(small_acl_ruleset), 5)
    assert table.lo.dtype == table.hi.dtype == np.int64
    for row, rule in enumerate(small_acl_ruleset.rules):
        assert list(zip(table.lo[row].tolist(), table.hi[row].tolist())) \
            == list(rule.ranges)
    with pytest.raises(ValueError):
        table.lo[0, 0] = 1
    rows = table.rows_of(small_acl_ruleset.rules[5:10])
    assert rows.tolist() == [5, 6, 7, 8, 9]
    stranger = Rule.from_fields(dst_port=(7, 8), priority=10 ** 7)
    assert table.rows_of([stranger]) is None


def test_bounds_table_of_no_rules():
    table = RuleBounds([])
    assert table.lo.shape == (0, 5)
    node = Node(ranges=FULL_SPACE, rules=[])
    assert [c.rules for c in node.apply(CutAction(Dimension.SRC_IP, 2))] \
        == [[], []]

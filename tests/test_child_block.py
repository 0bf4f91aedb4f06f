"""A cut keeps its children as one block; a ``Node`` exists only once read.

``DecisionTree`` grows a tree whose cut children are ``ChildBlock`` slots
until the frontier reaches one or something reads ``children``.  These
tests hold it to ``tests/reference_tree.py``, which builds every child as a
``Node`` at once: the same nodes (boxes, the very ``Rule`` objects in order,
rows, depth, partition state, forced-leaf flags), the same subtree prices
and overflow verdict read straight from the blocks, and the same flags after
a truncation.  A rollout builds a node only for the nodes it decides on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tree
from repro.classbench import generate_classifier
from repro.exceptions import InvalidActionError
from repro.neurocuts import NeuroCutsConfig, NeuroCutsEnv
from repro.nn import ActorCriticMLP
from repro.rl import Policy
from repro.rules import DIMENSIONS, FIELD_RANGES, Rule, RuleSet
from repro.rules.fields import Dimension
from repro.tree import (
    CutAction,
    DecisionTree,
    MultiCutAction,
    Node,
    PartitionAction,
    SplitAction,
    subtree_costs,
    tree_from_dict,
    tree_to_dict,
)
from repro.tree.node import ChildBlock

#: Rule bounds fall on eighths of each field, so rules nest, tie and get
#: shadowed inside children all the time.
_EIGHTHS = 8


@st.composite
def grid_rulesets(draw):
    count = draw(st.integers(2, 24))
    rules = []
    for i in range(count - 1):
        ranges = []
        for dim in DIMENSIONS:
            lo_bound, hi_bound = FIELD_RANGES[dim]
            step = (hi_bound - lo_bound) // _EIGHTHS
            lo = draw(st.integers(0, _EIGHTHS - 1))
            hi = draw(st.integers(lo + 1, _EIGHTHS))
            ranges.append((lo_bound + lo * step,
                           hi_bound if hi == _EIGHTHS
                           else lo_bound + hi * step))
        rules.append(Rule(ranges=tuple(ranges), priority=count - i))
    rules.append(Rule.wildcard(priority=0))
    return RuleSet(rules, name="grid", reassign_priorities=True)


@st.composite
def classbench_rulesets(draw):
    family = draw(st.sampled_from(["acl1", "fw5", "ipc1"]))
    return generate_classifier(family, draw(st.integers(8, 60)),
                               seed=draw(st.integers(0, 2 ** 16)))


def actions_for(node: Node):
    """Cuts, multi-cuts and splits (now and then a partition) fitted to
    ``node``'s box; some cannot be applied, which the builders meet too."""
    dims = st.sampled_from(list(Dimension))

    @st.composite
    def split(draw):
        dim = draw(dims)
        lo, hi = node.range_for(dim)
        if hi - lo < 2:
            return SplitAction(dim, lo)  # not inside the range: invalid
        return SplitAction(dim, draw(st.integers(lo + 1, hi - 1)))

    multicut = st.lists(st.tuples(dims, st.sampled_from([2, 4])),
                        min_size=2, max_size=3,
                        unique_by=lambda cut: cut[0]).map(
        lambda cuts: MultiCutAction(tuple(cuts)))
    return st.one_of(
        st.builds(CutAction, dims, st.sampled_from([2, 4, 8, 16, 32])),
        multicut, split(),
        st.builds(PartitionAction, dims, st.sampled_from([0.05, 0.5])))


def _same_rows(node: Node, ref: Node) -> bool:
    if (node._rows is None) != (ref._rows is None):
        return False
    return node._rows is None or np.array_equal(node._rows, ref._rows)


def assert_same_node(node: Node, ref: Node) -> None:
    assert node.ranges == ref.ranges
    assert len(node.rules) == len(ref.rules)
    assert all(a is b for a, b in zip(node.rules, ref.rules))
    assert _same_rows(node, ref)
    assert node._bounds is ref._bounds
    assert (node.depth, node.partition_state, node.efficuts_category,
            node.forced_leaf, node.action) \
        == (ref.depth, ref.partition_state, ref.efficuts_category,
            ref.forced_leaf, ref.action)
    assert node.num_children == ref.num_children


def walk_together(tree: DecisionTree, eager):
    """Both trees in the same pre-order, every block built on the way."""
    stack = [(tree.root, eager.root)]
    while stack:
        node, ref = stack.pop()
        yield node, ref
        assert len(node.children) == len(ref.children)
        stack.extend(zip(node.children, ref.children))


@settings(max_examples=120, deadline=None)
@given(ruleset=st.one_of(grid_rulesets(), classbench_rulesets()),
       data=st.data())
def test_blocks_build_what_eager_construction_builds(ruleset, data):
    threshold = data.draw(st.integers(1, 6), label="leaf_threshold")
    max_depth = data.draw(st.sampled_from([None, 2, 4]), label="max_depth")
    prune = data.draw(st.booleans(), label="prune_redundant")
    tree = DecisionTree(ruleset, leaf_threshold=threshold,
                        max_depth=max_depth, prune_redundant=prune)
    eager = reference_tree.EagerTree(ruleset, threshold, max_depth, prune)

    decided = []  # (node, its eager twin), in decision order
    for _ in range(data.draw(st.integers(0, 12), label="decisions")):
        node, ref = tree.current_node(), eager.current_node()
        assert (node is None) == (ref is None)
        if node is None:
            break
        assert_same_node(node, ref)
        action = data.draw(actions_for(node), label="action")
        decided.append((node, ref))
        applied = []
        for builder, target in ((tree, node), (eager, ref)):
            try:
                builder.apply_action(action)
                applied.append(True)
            except InvalidActionError:
                target.forced_leaf = True
                applied.append(False)
        assert applied[0] == applied[1]
    if data.draw(st.booleans(), label="truncate"):
        tree.truncate()
        eager.truncate()

    # Read from the blocks, before any child is built for the asking.
    ref_costs = reference_tree.subtree_costs(eager.root)
    costs = subtree_costs(tree.root)
    for node, ref in [(tree.root, eager.root)] + decided:
        assert costs[node.node_id] == ref_costs[ref.node_id]
    assert tree.has_overflowing_leaves() == eager.has_overflowing_leaves()

    # Build every block: the same nodes, and every subtree priced alike.
    pairs = list(walk_together(tree, eager))
    for node, ref in pairs:
        assert_same_node(node, ref)
    built = {id(node) for node, _ in pairs}
    assert all(id(node) in built for node, _ in decided)
    costs = subtree_costs(tree.root)
    assert {node.node_id: costs[node.node_id] for node, _ in pairs} \
        == {node.node_id: ref_costs[ref.node_id] for node, ref in pairs}
    assert tree.has_overflowing_leaves() == eager.has_overflowing_leaves()


def test_a_child_read_early_is_the_child_children_returns(small_fw_ruleset):
    tree = DecisionTree(small_fw_ruleset, leaf_threshold=4)
    root = tree.root
    block = tree.apply_action(CutAction(Dimension.SRC_IP, 8))
    assert isinstance(block, ChildBlock) and len(block) == 8
    first = tree.current_node()
    tree.apply_action(CutAction(Dimension.DST_IP, 4))
    assert [block.is_built(i) for i in range(8)].count(True) == 1
    assert root.num_children == 8
    children = root.children
    assert any(child is first for child in children)
    assert all(child is block[i] for i, child in enumerate(children))
    assert root.children is children


def test_copies_agree_on_node_ids_whatever_they_build_first(
        small_fw_ruleset):
    tree = DecisionTree(small_fw_ruleset, leaf_threshold=4)
    for _ in range(3):
        tree.apply_action(CutAction(Dimension.SRC_IP, 4))
    copy = pickle.loads(pickle.dumps(tree))
    # The copy builds a child of the last cut first; the tree builds its
    # blocks in order.
    deep = copy.current_node()
    ids = [node.node_id for node in tree.nodes()]
    assert [node.node_id for node in copy.nodes()] == ids
    assert deep.node_id in ids


def test_block_ranges_tile_the_parent(small_fw_ruleset):
    tree = DecisionTree(small_fw_ruleset, leaf_threshold=4)
    block = tree.apply_action(MultiCutAction(((Dimension.SRC_PORT, 4),
                                              (Dimension.PROTOCOL, 2))))
    ranges = block.ranges
    assert ranges.shape == (8, 5, 2)
    assert ranges.tolist() == [[list(r) for r in child.ranges]
                               for child in tree.root.children]


def _rollout(ruleset, **overrides):
    config = NeuroCutsConfig.fast_test_config(**{
        "hidden_sizes": (16, 16), "leaf_threshold": 4, "seed": 1,
        **overrides})
    env = NeuroCutsEnv(ruleset, config)
    model = ActorCriticMLP(env.observation_size, env.action_sizes,
                           hidden_sizes=(16, 16), seed=1)
    return env, Policy(model, env.action_space.space, seed=1)


@pytest.mark.parametrize("overrides,truncated", [
    ({"max_timesteps_per_rollout": 30}, True),
    ({"max_tree_depth": 2, "max_timesteps_per_rollout": 500}, False),
])
def test_a_rollout_builds_a_node_only_for_what_it_decides_on(
        small_fw_ruleset, monkeypatch, overrides, truncated):
    env, policy = _rollout(small_fw_ruleset, **overrides)
    built = []
    init = Node.__init__
    monkeypatch.setattr(Node, "__init__",
                        lambda node, *args, **kwargs:
                        built.append(node) or init(node, *args, **kwargs))
    result = env.rollout(policy)
    assert result.truncated == truncated and result.num_steps > 1
    assert result.overflowing == truncated  # priced from the blocks
    assert len(built) <= result.num_steps + 1
    monkeypatch.undo()

    tree = result.tree
    assert tree.num_nodes() > len(built)  # reading children built the rest
    data = tree_to_dict(tree)
    copy = tree_from_dict(data, small_fw_ruleset)
    assert tree_to_dict(copy) == data
    assert subtree_costs(copy.root)[copy.root.node_id] \
        == subtree_costs(tree.root)[tree.root.node_id] \
        == (result.root_reward.time, result.root_reward.space)

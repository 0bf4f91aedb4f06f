"""Eager tree construction: every child of a cut is a ``Node`` at once.

The oracle for ``repro.tree.node.ChildBlock``, which keeps a cut's children
as arrays and builds a ``Node`` only for a child that is read.  Here each
cut builds all of its children, one ``Node`` each bound to its rows, and
``EagerTree`` grows a tree on them with a frontier of nodes:

* ``eager_children(node, action, prune_redundant)`` — the children of a
  cut, multi-cut or split, always found from runs and difference boxes
  (``_cut_reach``, ``Node._shadowed``), whatever the node's size;
* ``EagerTree`` — ``current_node`` / ``apply_action`` / ``truncate`` and
  ``has_overflowing_leaves`` over those nodes;
* ``subtree_costs(root)`` — Eqs. 1-4 node by node, every node its own entry.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidActionError, TreeError
from repro.rules.fields import FULL_SPACE
from repro.tree import (
    CutAction,
    EffiCutsPartitionAction,
    MultiCutAction,
    Node,
    PartitionAction,
    SplitAction,
    node_space_cost,
    node_time_cost,
)
from repro.tree.node import _WIDTH, _box_key, _cut_reach


def eager_children(node: Node, action, prune_redundant: bool = True
                   ) -> List[Node]:
    """Every child of ``action`` on ``node`` as a ``Node``, rows bound."""
    if isinstance(action, CutAction):
        cuts = [(action.dimension,
                 node.cut_points(action.dimension, action.num_cuts))]
    elif isinstance(action, MultiCutAction):
        cuts = [(dim, node.cut_points(dim, n)) for dim, n in action.cuts]
    elif isinstance(action, SplitAction):
        cuts = [(action.dimension, node._split_points(action))]
    elif isinstance(action, PartitionAction):
        return node._apply_partition(action)
    elif isinstance(action, EffiCutsPartitionAction):
        return node._apply_efficuts_partition(action)
    else:
        raise InvalidActionError(f"unsupported action type: {type(action)!r}")

    table, rows = node._table_rows()
    dims = [int(dim) for dim, _ in cuts]
    points = [pts for _, pts in cuts]
    shape = tuple(len(pts) - 1 for pts in points)
    count = len(rows)
    key = np.maximum(table.key.take(rows, axis=1), _box_key(node.ranges))
    reach = _cut_reach(key, dims, points)
    held = (key[:_WIDTH] + key[_WIDTH:] < 0).all(axis=0)
    for axis, size in enumerate(shape):
        child = np.arange(size).reshape((-1,) + (1,) * (len(shape) - axis))
        held = held & (reach[0, axis] <= child) & (child < reach[1, axis])
    if prune_redundant:
        shadowed = Node._shadowed(key, dims, points, reach)
        if shadowed is not None:
            held &= ~shadowed

    # One pass over the grid, children in order, rules in order within.
    num_children = math.prod(shape)
    child_of, picks = held.reshape(num_children, count).nonzero()
    ends = child_of.searchsorted(np.arange(1, num_children + 1)).tolist()
    picked = [node.rules[i] for i in picks.tolist()]
    picked_rows = rows[picks]
    ranges = list(node.ranges)
    children = []
    start = 0
    for subs, end in zip(itertools.product(*[list(zip(pts, pts[1:]))
                                             for pts in points]), ends):
        for d, sub in zip(dims, subs):
            ranges[d] = sub
        child = Node(ranges=tuple(ranges), rules=picked[start:end],
                     depth=node.depth + 1,
                     partition_state=node.partition_state,
                     efficuts_category=node.efficuts_category)
        child.bind(table, picked_rows[start:end])
        children.append(child)
        start = end
    return children


class EagerTree:
    """``DecisionTree``'s construction state machine on eager children."""

    def __init__(self, ruleset, leaf_threshold: int,
                 max_depth: Optional[int] = None,
                 prune_redundant: bool = True) -> None:
        self.ruleset = ruleset
        self.leaf_threshold = leaf_threshold
        self.max_depth = max_depth
        self.prune_redundant = prune_redundant
        self.root = Node(ranges=FULL_SPACE, rules=list(ruleset.rules))
        self.root.bind(ruleset.bounds, np.arange(len(ruleset)))
        self._frontier: List[Node] = []
        self._push_if_unfinished(self.root)

    def _push_if_unfinished(self, node: Node) -> None:
        if not node.is_terminal(self.leaf_threshold):
            if self.max_depth is None or node.depth < self.max_depth:
                self._frontier.append(node)
                return
            node.forced_leaf = True
        node.release_rows()

    def current_node(self) -> Optional[Node]:
        while self._frontier:
            node = self._frontier[-1]
            if node.is_leaf and not node.is_terminal(self.leaf_threshold):
                return node
            self._frontier.pop()
        return None

    def apply_action(self, action) -> List[Node]:
        node = self.current_node()
        if node is None:
            raise TreeError("tree construction is already complete")
        self._frontier.pop()
        if node.action is not None:
            raise InvalidActionError(f"node {node.node_id} already has an action")
        children = eager_children(node, action, self.prune_redundant)
        node.action = action
        node.children = children
        node.release_rows()
        for child in reversed(children):
            self._push_if_unfinished(child)
        return children

    def truncate(self) -> None:
        while self._frontier:
            node = self._frontier.pop()
            if node.is_leaf:
                node.forced_leaf = True
                node.release_rows()

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def has_overflowing_leaves(self) -> bool:
        return any(node.num_rules > self.leaf_threshold
                   for node in self.nodes() if node.is_leaf)


def subtree_costs(root: Node) -> Dict[int, Tuple[int, int]]:
    """``(time, space)`` of every subtree, Eqs. 1-4 node by node."""
    costs: Dict[int, Tuple[int, int]] = {}

    def visit(node: Node) -> Tuple[int, int]:
        below = [visit(child) for child in node.children]
        time, space = node_time_cost(node), node_space_cost(node)
        if below:
            times = [t for t, _ in below]
            time += sum(times) if node.is_partition_node else max(times)
            space += sum(s for _, s in below)
        costs[node.node_id] = (time, space)
        return time, space

    visit(root)
    return costs

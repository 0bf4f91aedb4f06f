"""The decision tree and its construction state machine.

A :class:`DecisionTree` starts as a single root node holding every rule and
the full header space.  Builders (NeuroCuts or the baseline heuristics)
repeatedly ask for the next unfinished node (depth-first order, as in
Algorithm 1's ``GrowTreeDFS``) and apply an action to it, until every leaf is
terminal — i.e. holds at most ``leaf_threshold`` rules — or construction is
truncated.

The frontier holds ``(children, index)`` entries, ``children`` a cut's
:class:`~repro.tree.node.ChildBlock` (or a list of nodes): a child becomes a
:class:`Node` when the frontier reaches it, and a child that is a leaf on
arrival is never built during construction at all.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidActionError, TreeError
from repro.rules.fields import DIMENSIONS, FULL_SPACE, Ranges
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.tree.actions import Action
from repro.tree.node import ChildBlock, Node

#: Default maximum number of rules a terminal leaf may hold (binth in HiCuts).
DEFAULT_LEAF_THRESHOLD = 16


class DecisionTree:
    """A packet-classification decision tree under construction or complete.

    Args:
        ruleset: the classifier the tree is being built for.
        leaf_threshold: maximum rules per terminal leaf ("binth").
        max_depth: optional depth truncation; nodes at this depth are forced
            to become leaves even if they still hold too many rules.
        prune_redundant: whether to drop rules that cannot win inside a
            child's box when cutting (standard overlap pruning).
        root_ranges: box of the root node (defaults to the full 5-d space);
            partitioned classifiers build one tree per partition, each with
            the full space but a subset of the rules.
        rules: optional explicit rule list for the root (defaults to all
            rules of ``ruleset``).
    """

    def __init__(
        self,
        ruleset: RuleSet,
        leaf_threshold: int = DEFAULT_LEAF_THRESHOLD,
        max_depth: Optional[int] = None,
        prune_redundant: bool = True,
        root_ranges: Optional[Ranges] = None,
        rules: Optional[List[Rule]] = None,
    ) -> None:
        if leaf_threshold < 1:
            raise TreeError("leaf_threshold must be >= 1")
        self.ruleset = ruleset
        self.leaf_threshold = leaf_threshold
        self.max_depth = max_depth
        self.prune_redundant = prune_redundant
        root_rules = list(rules) if rules is not None else list(ruleset.rules)
        self.root = Node(
            ranges=root_ranges or FULL_SPACE,
            rules=root_rules,
            depth=0,
        )
        # The classifier's table is row-for-rule with ``ruleset.rules``; the
        # rows of an explicit subset are looked up when first needed.
        self.root.bind(ruleset.bounds,
                       np.arange(len(ruleset)) if rules is None else None)
        # Depth-first frontier of the children that still need an action.
        self._frontier: List[Tuple[Sequence[Node], int]] = []
        self._queue([self.root], 0)
        self._num_actions = 0
        # Bumped on every structural change; compiled-engine caches key on it.
        self._version = 0

    # ------------------------------------------------------------------ #
    # Construction state machine
    # ------------------------------------------------------------------ #

    def _queue(self, children: Sequence[Node], depth: int) -> None:
        """Put the new ``children`` (at ``depth``) that still need an action
        on the frontier, last first so the first is cut next; at
        ``max_depth`` they become forced leaves instead."""
        threshold = self.leaf_threshold
        if isinstance(children, ChildBlock):
            terminal = [size <= threshold for size in children.sizes]
            children.terminal = terminal
        else:
            terminal = [node.num_rules <= threshold for node in children]
            for node, done in zip(children, terminal):
                if done:
                    # A finished leaf will not be cut: it need not keep its
                    # rows.
                    node.release_rows()
        unfinished = [i for i, done in enumerate(terminal) if not done]
        if self.max_depth is None or depth < self.max_depth:
            self._frontier.extend((children, i) for i in reversed(unfinished))
        else:
            for i in unfinished:
                _force_leaf(children, i)

    @property
    def num_actions_taken(self) -> int:
        """How many actions have been applied so far."""
        return self._num_actions

    @property
    def version(self) -> int:
        """Monotonic structural version (see :meth:`mark_modified`)."""
        return self._version

    def mark_modified(self) -> None:
        """Record a structural change so compiled caches are invalidated.

        Construction bumps the version automatically; callers mutating nodes
        directly (e.g. incremental rule updates) must call this themselves.
        """
        self._version += 1

    def current_node(self) -> Optional[Node]:
        """The next node to act on (DFS order), or None if the tree is done."""
        while self._frontier:
            children, index = self._frontier[-1]
            node = children[index]
            if node.is_leaf and not node.is_terminal(self.leaf_threshold):
                return node
            self._frontier.pop()
        return None

    def is_complete(self) -> bool:
        """True once every leaf is terminal (or truncated)."""
        return self.current_node() is None

    def apply_action(self, action: Action) -> Sequence[Node]:
        """Apply an action to the current node and advance the frontier.

        Returns the children created, as :meth:`Node.grow` does: a cut's as
        a sequence that builds each child's node when it is read.  Raises
        :class:`TreeError` if the tree is already complete.
        """
        node = self.current_node()
        if node is None:
            raise TreeError("tree construction is already complete")
        self._frontier.pop()
        children = node.grow(action, prune_redundant=self.prune_redundant)
        self._queue(children, node.depth + 1)
        self._num_actions += 1
        self._version += 1
        return children

    def truncate(self) -> None:
        """Force every remaining unfinished node to become a leaf.

        Used for rollout truncation (Section 5.1): a partially built tree is
        still a valid classifier, just a poor one.
        """
        while self._frontier:
            _force_leaf(*self._frontier.pop())
        self._version += 1

    # ------------------------------------------------------------------ #
    # Traversal and inspection
    # ------------------------------------------------------------------ #

    def nodes(self) -> Iterator[Node]:
        """Yield every node in the tree, depth-first pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[Node]:
        """Yield every leaf node."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def internal_nodes(self) -> Iterator[Node]:
        """Yield every node that has an action applied."""
        for node in self.nodes():
            if not node.is_leaf:
                yield node

    def num_nodes(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.nodes())

    def num_leaves(self) -> int:
        """Total number of leaf nodes."""
        return sum(1 for _ in self.leaves())

    def depth(self) -> int:
        """Maximum leaf depth (the paper's classification-time metric)."""
        return max((node.depth for node in self.leaves()), default=0)

    def nodes_per_level(self) -> List[int]:
        """Number of nodes at each depth (Figure 5's y-axis)."""
        counts: List[int] = []
        for node in self.nodes():
            while len(counts) <= node.depth:
                counts.append(0)
            counts[node.depth] += 1
        return counts

    def max_leaf_rules(self) -> int:
        """Largest number of rules held by any leaf."""
        return max((leaf.num_rules for leaf in self.leaves()), default=0)

    def has_overflowing_leaves(self) -> bool:
        """True if truncation left leaves that exceed the leaf threshold.

        Builds no node: a block's unbuilt leaves are judged by their sizes.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.num_rules > self.leaf_threshold:
                    return True
                continue
            built, sizes = node.child_parts()
            if sizes and max(sizes) > self.leaf_threshold:
                return True
            stack.extend(built)
        return False


def _force_leaf(children: Sequence[Node], index: int) -> None:
    """Make a child that was still to be cut a forced leaf; an unbuilt slot
    of a block only has its flag set."""
    if isinstance(children, ChildBlock) and not children.is_built(index):
        children.forced[index] = True
        return
    node = children[index]
    if node.is_leaf:
        node.forced_leaf = True
        node.release_rows()


def build_with_policy(
    ruleset: RuleSet,
    choose_action: Callable[[Node], Action],
    leaf_threshold: int = DEFAULT_LEAF_THRESHOLD,
    max_depth: Optional[int] = None,
    max_actions: Optional[int] = None,
    prune_redundant: bool = True,
) -> DecisionTree:
    """Build a complete tree by repeatedly applying a node -> action policy.

    This is the shared driver used by the baseline heuristics: the policy
    callable inspects a node and returns the action to apply to it.
    """
    tree = DecisionTree(
        ruleset,
        leaf_threshold=leaf_threshold,
        max_depth=max_depth,
        prune_redundant=prune_redundant,
    )
    while not tree.is_complete():
        if max_actions is not None and tree.num_actions_taken >= max_actions:
            tree.truncate()
            break
        node = tree.current_node()
        assert node is not None
        action = choose_action(node)
        try:
            tree.apply_action(action)
        except InvalidActionError:
            # The policy produced an inapplicable action (e.g. a partition
            # that does not separate anything); make the node a leaf instead.
            # apply_action already removed the node from the frontier.
            node.forced_leaf = True
    return tree

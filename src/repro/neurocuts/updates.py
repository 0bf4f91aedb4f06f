"""Incremental classifier updates (Section 4.2, "Handling classifier updates").

Small updates do not retrain the policy: new rules are inserted into the
existing tree along every path whose box they intersect (respecting the
partition structure), and deleted rules are removed from the nodes that hold
them.  When updates accumulate past a threshold, the caller is told to
retrain (the paper's "re-runs training" case).

Removal has to undo build-time pruning.  Builders drop from a child every
rule that a higher-priority rule shadows inside the child's box; take the
shadowing rule away and the shadowed ones must come back, or the leaf
answers with a lower-priority match than linear search does.  The invariant
both directions keep is, for every leaf and every rule of the tree routed to
it whose box meets the leaf's: *the leaf holds the rule, or holds a
higher-priority rule that contains it inside the leaf's box*.

Node rule lists are only ever edited through ``Node.insert_rule`` /
``Node.discard_rule``, which also drop the node's derived array state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence

from repro.rules.rule import Rule
from repro.tree.actions import (
    CutAction,
    EffiCutsPartitionAction,
    PartitionAction,
)
from repro.tree.node import Node, efficuts_mask
from repro.tree.tree import DecisionTree


@dataclass
class UpdateStats:
    """Bookkeeping about updates applied to a live classifier."""

    rules_added: int = 0
    rules_removed: int = 0
    leaves_touched: int = 0

    @property
    def total_updates(self) -> int:
        return self.rules_added + self.rules_removed


class IncrementalUpdater:
    """Applies rule insertions/removals to an already-built decision tree."""

    def __init__(self, tree: DecisionTree, retrain_threshold: int = 100) -> None:
        self.tree = tree
        self.retrain_threshold = retrain_threshold
        self.stats = UpdateStats()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def add_rule(self, rule: Rule) -> int:
        """Insert a rule into every leaf whose region it intersects.

        Returns the number of leaves the rule was added to.
        """
        root = self.tree.root
        touched = self._insert(root, rule) \
            if rule.intersects(root.ranges) else 0
        if touched:
            self.tree.ruleset = self.tree.ruleset.with_rules_added([rule])
            self.stats.rules_added += 1
            self.stats.leaves_touched += touched
            self.tree.mark_modified()
        return touched

    def remove_rule(self, rule: Rule) -> int:
        """Remove a rule from every node holding it, and bring back into
        each leaf that held it the rules it alone shadowed there.

        Returns the number of leaves the rule was removed from.
        """
        root = self.tree.root
        touched = 0
        if rule.intersects(root.ranges):
            # The root holds every rule of this tree, highest priority
            # first; those after the removed rule that overlap it are all it
            # can have shadowed.
            try:
                lower = root.rules[root.rules.index(rule) + 1:]
            except ValueError:
                lower = []
            shadowed = [other for other in lower if other.overlaps(rule)
                        and other.intersects(root.ranges)]
            touched = self._remove(root, rule, shadowed)[0]
        if touched or rule in self.tree.ruleset.rules:
            self.tree.ruleset = self.tree.ruleset.with_rules_removed([rule])
            self.stats.rules_removed += 1
            self.stats.leaves_touched += touched
            self.tree.mark_modified()
        return touched

    def needs_retraining(self) -> bool:
        """True once enough updates accumulated that retraining is advised."""
        return self.stats.total_updates >= self.retrain_threshold

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _partition_child(self, node: Node, rule: Rule) -> Node:
        """The child of a partition node a rule is routed to."""
        if isinstance(node.action, PartitionAction):
            coverage = rule.coverage_fraction(node.action.dimension)
            # Children were created in (small, large) order.
            return node.children[1] if coverage > node.action.threshold \
                else node.children[0]
        mask = efficuts_mask(rule, node.action.largeness_threshold)
        for child in node.children:
            if child.efficuts_category == mask:
                return child
        # No exact category (it was empty at build time): use the child with
        # the closest mask so the rule still lands in exactly one tree.
        return min(
            node.children,
            key=lambda c: bin((c.efficuts_category or 0) ^ mask).count("1"),
        )

    @staticmethod
    def _children_reached(node: Node, rule: Rule) -> Sequence[Node]:
        """The children of a cut node that ``rule``, which reaches into the
        node's own box, reaches into."""
        action = node.action
        if isinstance(action, CutAction):
            # Equal-width children along one dimension: a run of them, found
            # from the boundary points without looking at each child (the
            # one-rule form of ``tree.node.child_spans``).
            points = node.cut_points(action.dimension, action.num_cuts)
            lo, hi = rule.ranges[action.dimension]
            return node.children[max(bisect_right(points, lo) - 1, 0):
                                 bisect_left(points, hi)]
        return [child for child in node.children
                if rule.intersects(child.ranges)]

    def _insert(self, node: Node, rule: Rule) -> int:
        """Insert below ``node``, whose box ``rule`` reaches into."""
        if node.is_leaf:
            node.insert_rule(rule)
            return 1
        if isinstance(node.action,
                      (PartitionAction, EffiCutsPartitionAction)):
            touched = self._insert(self._partition_child(node, rule), rule)
        else:
            touched = sum(self._insert(child, rule)
                          for child in self._children_reached(node, rule))
        if touched:
            node.insert_rule(rule)
        return touched

    def _remove(self, node: Node, rule: Rule,
                shadowed: List[Rule]) -> tuple[int, List[Rule]]:
        """Strip ``rule`` from the subtree under ``node``, whose box it
        reaches into.

        ``shadowed`` are the rules routed to ``node`` and reaching into its
        box that ``rule`` may have shadowed below it.  Returns how many
        leaves held ``rule`` and which of ``shadowed`` were brought back
        into some leaf, so every node on the way up holds them too.
        """
        held = node.discard_rule(rule)
        if node.is_leaf:
            restored = self._restore(node, rule, shadowed) if held else []
            return int(held), restored
        touched, restored = 0, []
        action = node.action
        if isinstance(action, (PartitionAction, EffiCutsPartitionAction)):
            # A partition splits the node's rules, not its box.  A rule that
            # ``rule`` shadowed in this node's box was never routed down, and
            # may belong to a child ``rule`` is not in, whose leaves cannot
            # bring it back: insert it into that child here.
            home = self._partition_child(node, rule)
            for other in self._restore(node, rule, shadowed) if held else []:
                child = self._partition_child(node, other)
                if child is not home and self._insert(child, other):
                    restored.append(other)
            routed = [(other, self._partition_child(node, other))
                      for other in shadowed]
            below = [(child, [other for other, target in routed
                              if target is child])
                     for child in node.children]
        elif isinstance(action, CutAction):
            # Only the cut dimension tells a child's box from its parent's.
            d = action.dimension
            below = [(child, [other for other in shadowed
                              if other.ranges[d][0] < child.ranges[d][1]
                              and child.ranges[d][0] < other.ranges[d][1]])
                     for child in self._children_reached(node, rule)]
        else:
            below = [(child, [other for other in shadowed
                              if other.intersects(child.ranges)])
                     for child in self._children_reached(node, rule)]
        for child, candidates in below:
            child_touched, child_restored = self._remove(
                child, rule, candidates)
            touched += child_touched
            restored.extend(child_restored)
        for other in restored:
            node.insert_rule(other)
        return touched, restored

    @staticmethod
    def _restore(node: Node, removed: Rule, shadowed: List[Rule]
                 ) -> List[Rule]:
        """Bring back into ``node`` (a leaf, or a partition node) the rules
        only ``removed`` shadowed.

        Those are the candidates ``removed`` contained inside the node's box
        that the node lacks and no remaining higher-priority rule contains
        there.  Any higher-priority rule of the node or candidate counts as
        a coverer, restored or not: containment is transitive, and the
        first rule of a chain of coverers is always restored.
        """
        if not shadowed:
            return []
        box = node.ranges
        held = set(node.rules)
        lacking = [other for other in shadowed
                   if other not in held
                   and removed.covers_within(other, box)]
        present = node.rules + lacking
        restored = [
            other for other in lacking
            if not any(higher.priority > other.priority
                       and higher.covers_within(other, box)
                       for higher in present)
        ]
        for other in restored:
            node.insert_rule(other)
        return restored

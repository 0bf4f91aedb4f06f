"""CutSplit (Li et al., INFOCOM 2018).

CutSplit combines pre-cutting with splitting:

1. rules are partitioned into subsets by how "small" (long-prefix) their
   source/destination IP fields are — both small, only one small, or
   neither;
2. each subset's tree is first built with equal-width **cuts** (FiCuts) along
   the small IP dimensions while cutting remains effective, and
3. once cutting stops separating rules, the builder switches to
   HyperSplit-style binary **splits** at a weighted-median range endpoint,
   which guarantees progress without replication blow-up.

The published algorithm's thresholds (a field is "small" when its prefix is
at least 16 bits, i.e. coverage fraction at most 2^-16 of the address space
... in practice 1/65536) are preserved as constructor knobs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidActionError
from repro.rules.fields import DIMENSIONS, Dimension
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.tree.actions import CutAction, SplitAction
from repro.tree.lookup import TreeClassifier
from repro.tree.node import Node
from repro.tree.tree import DecisionTree
from repro.baselines.base import TreeBuilder, distinct_projections

#: Subset labels used by CutSplit's pre-partitioning.
SUBSET_BOTH_SMALL = "sa_da_small"
SUBSET_SRC_SMALL = "sa_small"
SUBSET_DST_SMALL = "da_small"
SUBSET_BIG = "big"


class CutSplitBuilder(TreeBuilder):
    """Multi-tree CutSplit heuristic (FiCuts pre-cutting + HyperSplit)."""

    name = "CutSplit"

    def __init__(
        self,
        binth: int = 16,
        smallness_prefix: int = 16,
        cut_threshold: int = 64,
        max_cuts: int = 16,
        max_depth: Optional[int] = 200,
    ) -> None:
        self.binth = binth
        self.smallness_prefix = smallness_prefix
        #: Above this many rules a node is still pre-cut; below it we split.
        self.cut_threshold = cut_threshold
        self.max_cuts = max_cuts
        self.max_depth = max_depth

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #

    def _is_small(self, rule: Rule, dim: Dimension) -> bool:
        """A field is small when its range is a /smallness_prefix or longer."""
        max_span = 1 << (32 - self.smallness_prefix)
        return rule.span(dim) <= max_span

    def partition_rules(self, rules: Sequence[Rule]) -> Dict[str, List[Rule]]:
        """Split rules into the four CutSplit subsets (empty ones omitted)."""
        subsets: Dict[str, List[Rule]] = {
            SUBSET_BOTH_SMALL: [],
            SUBSET_SRC_SMALL: [],
            SUBSET_DST_SMALL: [],
            SUBSET_BIG: [],
        }
        for rule in rules:
            src_small = self._is_small(rule, Dimension.SRC_IP)
            dst_small = self._is_small(rule, Dimension.DST_IP)
            if src_small and dst_small:
                subsets[SUBSET_BOTH_SMALL].append(rule)
            elif src_small:
                subsets[SUBSET_SRC_SMALL].append(rule)
            elif dst_small:
                subsets[SUBSET_DST_SMALL].append(rule)
            else:
                subsets[SUBSET_BIG].append(rule)
        return {label: rules_ for label, rules_ in subsets.items() if rules_}

    def _cut_dimensions(self, subset: str) -> Tuple[Dimension, ...]:
        if subset == SUBSET_BOTH_SMALL:
            return (Dimension.SRC_IP, Dimension.DST_IP)
        if subset == SUBSET_SRC_SMALL:
            return (Dimension.SRC_IP,)
        if subset == SUBSET_DST_SMALL:
            return (Dimension.DST_IP,)
        return ()

    # ------------------------------------------------------------------ #
    # Per-node policy
    # ------------------------------------------------------------------ #

    def choose_action(self, node: Node, cut_dims: Tuple[Dimension, ...]):
        """FiCuts while the node is large, HyperSplit splits afterwards."""
        if node.num_rules > self.cut_threshold and cut_dims:
            dim = max(cut_dims, key=distinct_projections(node).__getitem__)
            lo, hi = node.range_for(dim)
            if hi - lo >= 2:
                num_cuts = min(self.max_cuts, hi - lo)
                return CutAction(dimension=dim, num_cuts=max(2, num_cuts))
        return self._split_action(node)

    def _split_action(self, node: Node) -> SplitAction:
        """HyperSplit: binary split at the weighted median range endpoint."""
        best: Optional[SplitAction] = None
        best_balance = None
        rule_lo, rule_hi = node.rule_bounds()
        for dim in DIMENSIONS:
            lo, hi = node.range_for(dim)
            if hi - lo < 2:
                continue
            endpoints = np.unique(np.concatenate(
                [rule_lo[:, dim], rule_hi[:, dim]]))
            endpoints = endpoints[(endpoints > lo) & (endpoints < hi)]
            if not len(endpoints):
                continue
            point = int(endpoints[len(endpoints) // 2])
            left = int(np.count_nonzero(rule_lo[:, dim] < point))
            right = int(np.count_nonzero(rule_hi[:, dim] > point))
            balance = abs(left - right) + (left + right - node.num_rules)
            if best is None or balance < best_balance:
                best = SplitAction(dimension=dim, split_point=point)
                best_balance = balance
        if best is None:
            raise InvalidActionError("no dimension offers a useful split point")
        return best

    # ------------------------------------------------------------------ #
    # Builder interface
    # ------------------------------------------------------------------ #

    def build(self, ruleset: RuleSet) -> TreeClassifier:
        subsets = self.partition_rules(ruleset.rules)
        trees: List[DecisionTree] = []
        for label, rules in subsets.items():
            cut_dims = self._cut_dimensions(label)
            ordered = sorted(rules, key=lambda r: -r.priority)
            trees.append(self._build_subset_tree(ruleset, ordered, cut_dims))
        return TreeClassifier(ruleset, trees, name=f"{self.name}:{ruleset.name}")

    def _build_subset_tree(self, ruleset: RuleSet, rules: List[Rule],
                           cut_dims: Tuple[Dimension, ...]) -> DecisionTree:
        tree = DecisionTree(
            ruleset,
            leaf_threshold=self.binth,
            max_depth=self.max_depth,
            rules=rules,
        )
        while not tree.is_complete():
            node = tree.current_node()
            assert node is not None
            try:
                action = self.choose_action(node, cut_dims)
                tree.apply_action(action)
            except InvalidActionError:
                # A forced leaf is terminal: the frontier passes over it.
                node.forced_leaf = True
        return tree

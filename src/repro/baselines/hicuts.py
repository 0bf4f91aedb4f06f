"""HiCuts (Gupta & McKeown, Hot Interconnects 1999).

HiCuts builds a single decision tree by, at every node:

1. choosing the dimension to cut — the one with the most distinct rule
   projections (the "maximise entropy of the split" heuristic), and
2. choosing the number of equal-width cuts — the largest power of two whose
   *space measure* (total rules replicated into children plus the child
   count) stays below ``spfac`` times the number of rules at the node.

The knobs ``binth`` (leaf threshold) and ``spfac`` (space factor) are the
ones the original paper exposes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rules.fields import DIMENSIONS, Dimension
from repro.rules.ruleset import RuleSet
from repro.tree.actions import CutAction
from repro.tree.lookup import TreeClassifier
from repro.tree.node import Node, child_spans
from repro.tree.tree import build_with_policy
from repro.baselines.base import TreeBuilder, distinct_projections


class HiCutsBuilder(TreeBuilder):
    """Single-tree HiCuts heuristic."""

    name = "HiCuts"

    def __init__(self, binth: int = 16, spfac: float = 4.0,
                 max_cuts: int = 64, max_depth: Optional[int] = 200) -> None:
        self.binth = binth
        self.spfac = spfac
        self.max_cuts = max_cuts
        self.max_depth = max_depth

    # ------------------------------------------------------------------ #
    # Heuristics
    # ------------------------------------------------------------------ #

    def choose_dimension(self, node: Node) -> Dimension:
        """Pick the dimension with the most distinct rule projections."""
        distinct = distinct_projections(node)
        best_dim = DIMENSIONS[0]
        best_score = -1
        for dim in DIMENSIONS:
            lo, hi = node.range_for(dim)
            if hi - lo < 2:
                continue
            if distinct[dim] > best_score:
                best_score = distinct[dim]
                best_dim = dim
        return best_dim

    def choose_num_cuts(self, node: Node, dim: Dimension) -> int:
        """Largest power-of-two cut count whose space measure is acceptable."""
        lo, hi = node.range_for(dim)
        span = hi - lo
        budget = self.spfac * max(1, node.num_rules)
        best = 2
        num_cuts = 2
        while num_cuts <= min(self.max_cuts, span):
            measure = self._space_measure(node, dim, num_cuts)
            if measure > budget:
                break
            best = num_cuts
            num_cuts *= 2
        return best

    def _space_measure(self, node: Node, dim: Dimension, num_cuts: int) -> float:
        """sm(C) from the HiCuts paper: replicated rules + children count.

        A rule is replicated into the run of children its range reaches, so
        the total is a sum of run lengths, not a children x rules scan.
        """
        points = np.asarray(node.cut_points(dim, num_cuts), dtype=np.int64)
        lo, hi = node.rule_bounds()
        first, last = child_spans(points, lo[:, dim], hi[:, dim])
        return int(np.maximum(last - first + 1, 0).sum()) + len(points) - 1

    def choose_action(self, node: Node) -> CutAction:
        """The per-node HiCuts policy."""
        dim = self.choose_dimension(node)
        num_cuts = self.choose_num_cuts(node, dim)
        return CutAction(dimension=dim, num_cuts=num_cuts)

    # ------------------------------------------------------------------ #
    # Builder interface
    # ------------------------------------------------------------------ #

    def build(self, ruleset: RuleSet) -> TreeClassifier:
        tree = build_with_policy(
            ruleset,
            self.choose_action,
            leaf_threshold=self.binth,
            max_depth=self.max_depth,
        )
        return TreeClassifier(ruleset, [tree], name=f"{self.name}:{ruleset.name}")

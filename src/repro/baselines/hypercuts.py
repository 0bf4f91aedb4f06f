"""HyperCuts (Singh et al., SIGCOMM 2003).

HyperCuts generalises HiCuts by cutting several dimensions at once at each
node.  The heuristics reproduced here follow the published algorithm:

* candidate dimensions are those whose count of distinct rule projections is
  at least the mean across dimensions;
* the total number of children is capped by ``spfac * sqrt(num_rules)``;
* per-dimension cut counts are grown round-robin (powers of two) until the
  cap or the dimension's width is reached.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.rules.fields import DIMENSIONS, Dimension
from repro.rules.ruleset import RuleSet
from repro.tree.actions import CutAction, MultiCutAction
from repro.tree.lookup import TreeClassifier
from repro.tree.node import Node
from repro.tree.tree import build_with_policy
from repro.baselines.base import TreeBuilder, distinct_projections


class HyperCutsBuilder(TreeBuilder):
    """Single-tree HyperCuts heuristic with multi-dimensional cuts."""

    name = "HyperCuts"

    def __init__(self, binth: int = 16, spfac: float = 4.0,
                 max_cuts_per_dim: int = 32,
                 max_depth: Optional[int] = 200) -> None:
        self.binth = binth
        self.spfac = spfac
        self.max_cuts_per_dim = max_cuts_per_dim
        self.max_depth = max_depth

    # ------------------------------------------------------------------ #
    # Heuristics
    # ------------------------------------------------------------------ #

    def candidate_dimensions(self, node: Node) -> List[Dimension]:
        """Dimensions with at-least-average numbers of distinct projections."""
        distinct = distinct_projections(node)
        counts = {}
        for dim in DIMENSIONS:
            lo, hi = node.range_for(dim)
            if hi - lo < 2:
                continue
            counts[dim] = distinct[dim]
        if not counts:
            return []
        mean = sum(counts.values()) / len(counts)
        chosen = [dim for dim, count in counts.items() if count >= mean and count > 1]
        if not chosen:
            # Fall back to the single most discriminating dimension.
            chosen = [max(counts, key=counts.get)]
        return chosen

    def choose_action(self, node: Node) -> MultiCutAction | CutAction:
        dims = self.candidate_dimensions(node)
        if not dims:
            # No dimension can separate anything; let the driver make a leaf.
            return CutAction(dimension=DIMENSIONS[0], num_cuts=2)
        max_children = max(2, int(self.spfac * math.sqrt(max(1, node.num_rules))))
        cuts = {dim: 1 for dim in dims}
        # Grow cut counts round-robin while the child budget allows.
        progressed = True
        while progressed:
            progressed = False
            for dim in dims:
                lo, hi = node.range_for(dim)
                width = hi - lo
                proposed = cuts[dim] * 2
                if proposed > min(self.max_cuts_per_dim, width):
                    continue
                total = proposed
                for other in dims:
                    if other is not dim:
                        total *= cuts[other]
                if total > max_children:
                    continue
                cuts[dim] = proposed
                progressed = True
        chosen = tuple((dim, n) for dim, n in cuts.items() if n >= 2)
        if not chosen:
            # Budget too tight for a multi-cut; do a binary cut on the best dim.
            return CutAction(dimension=dims[0], num_cuts=2)
        if len(chosen) == 1:
            dim, n = chosen[0]
            return CutAction(dimension=dim, num_cuts=n)
        return MultiCutAction(cuts=chosen)

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

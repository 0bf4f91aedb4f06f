"""Common interface for decision-tree builders (baselines and NeuroCuts).

Every algorithm in this repository — the four hand-tuned heuristics the paper
compares against and NeuroCuts itself — produces a
:class:`~repro.tree.lookup.TreeClassifier` over the *same* tree engine, so
classification-time and memory comparisons are apples-to-apples (the paper
makes the same methodological choice in Section 5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.rules.ruleset import RuleSet
from repro.tree.lookup import ClassifierStats, TreeClassifier
from repro.tree.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.dispatch import CompiledClassifier


@dataclass(frozen=True)
class BuildResult:
    """A built classifier together with its aggregate statistics."""

    classifier: TreeClassifier
    stats: ClassifierStats
    algorithm: str

    @property
    def classification_time(self) -> int:
        return self.stats.classification_time

    @property
    def bytes_per_rule(self) -> float:
        return self.stats.bytes_per_rule

    def compiled(self, flow_cache_size: Optional[int] = None
                 ) -> "CompiledClassifier":
        """The classifier compiled for the dataplane engine (cached)."""
        return self.classifier.compile(flow_cache_size=flow_cache_size)


class TreeBuilder(abc.ABC):
    """Base class for anything that turns a classifier into decision trees."""

    #: Human-readable algorithm name, e.g. ``"HiCuts"``.
    name: str = "builder"

    @abc.abstractmethod
    def build(self, ruleset: RuleSet) -> TreeClassifier:
        """Build the decision tree(s) for a classifier."""

    def build_with_stats(self, ruleset: RuleSet) -> BuildResult:
        """Build and bundle the result with its statistics."""
        classifier = self.build(ruleset)
        return BuildResult(
            classifier=classifier, stats=classifier.stats(), algorithm=self.name
        )

    def build_compiled(self, ruleset: RuleSet,
                       flow_cache_size: Optional[int] = None
                       ) -> "CompiledClassifier":
        """Build the tree(s) and compile them for the dataplane engine."""
        return self.build(ruleset).compile(flow_cache_size=flow_cache_size)


def distinct_projections(node: Node) -> List[int]:
    """Per dimension, how many distinct ranges the node's rules project to:
    the measure the cutting heuristics rank dimensions by."""
    lo, hi = node.rule_bounds()
    if not len(lo):
        return [0] * lo.shape[1]
    # A range packs into one sortable key: lo and hi - 1 are both < 2**32.
    keys = np.sort((lo.astype(np.uint64) << np.uint64(32))
                   | (hi - 1).astype(np.uint64), axis=0)
    return (1 + np.count_nonzero(keys[1:] != keys[:-1], axis=0)).tolist()


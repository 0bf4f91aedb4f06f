"""Packet classification over one or many decision trees.

Rule partitioning (EffiCuts-style or NeuroCuts' top-node partition action)
produces *several* trees for one classifier.  A packet must be classified
against every tree and the highest-priority match wins (Section 2.2).  The
:class:`TreeClassifier` holds those trees, exposes aggregate time/space
statistics consistent with :mod:`repro.tree.stats`, and compiles them into
the one lookup path, the dataplane engine:
``classifier.compile().classify_batch(packets)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.obs.serialize import stable_dict
from repro.rules.ruleset import RuleSet
from repro.tree.stats import TreeStats, compute_stats
from repro.tree.tree import DecisionTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.dispatch import CompiledClassifier


@dataclass(frozen=True)
class ClassifierStats:
    """Aggregate statistics over all trees of a (possibly partitioned) classifier."""

    classification_time: int
    memory_bytes: int
    bytes_per_rule: float
    num_trees: int
    num_nodes: int
    depth: int

    def as_dict(self) -> dict:
        return stable_dict({
            "classification_time": self.classification_time,
            "memory_bytes": self.memory_bytes,
            "bytes_per_rule": self.bytes_per_rule,
            "num_trees": self.num_trees,
            "num_nodes": self.num_nodes,
            "depth": self.depth,
        })


class TreeClassifier:
    """A complete classifier made of one or more decision trees."""

    def __init__(self, ruleset: RuleSet, trees: Sequence[DecisionTree],
                 name: str = "") -> None:
        if not trees:
            raise ValueError("a TreeClassifier needs at least one tree")
        self.ruleset = ruleset
        self.trees: List[DecisionTree] = list(trees)
        self.name = name or ruleset.name
        self._compiled: Optional["CompiledClassifier"] = None
        self._compiled_versions: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------ #
    # Compiled engine
    # ------------------------------------------------------------------ #

    def compile(self, flow_cache_size: Optional[int] = None
                ) -> "CompiledClassifier":
        """Compile this classifier for the dataplane engine.

        The compiled form is cached and reused until any underlying tree's
        structural version changes (construction steps or
        :meth:`~repro.tree.tree.DecisionTree.mark_modified` bump it), at
        which point the next call recompiles.  A flow cache attached here
        (or directly on the compiled object) survives cache-hit calls —
        ``flow_cache_size`` only creates a new cache when none is attached
        or the capacity changes — and is re-created empty on recompile.
        """
        from repro.engine.compile import compile_classifier

        versions = tuple(tree.version for tree in self.trees)
        if self._compiled is None or self._compiled_versions != versions:
            previous = self._compiled.flow_cache if self._compiled else None
            if flow_cache_size is None and previous is not None:
                # Preserve the caching configuration across recompiles; the
                # entries themselves are stale and must not carry over.
                flow_cache_size = previous.capacity
            self._compiled = compile_classifier(
                self, flow_cache_size=flow_cache_size)
            self._compiled_versions = versions
        else:
            if flow_cache_size is not None:
                existing = self._compiled.flow_cache
                if existing is None or existing.capacity != flow_cache_size:
                    self._compiled.attach_flow_cache(flow_cache_size)
        return self._compiled

    def invalidate_compiled(self) -> None:
        """Drop the cached compiled form (next use recompiles)."""
        self._compiled = None
        self._compiled_versions = None

    def per_tree_stats(self) -> List[TreeStats]:
        """Statistics of each individual tree."""
        return [compute_stats(tree) for tree in self.trees]

    def stats(self) -> ClassifierStats:
        """Aggregate statistics of the whole classifier.

        Classification time sums across trees (each is queried), memory sums,
        and bytes-per-rule is normalised by the original rule count.
        """
        per_tree = self.per_tree_stats()
        total_time = sum(s.classification_time for s in per_tree)
        total_space = sum(s.memory_bytes for s in per_tree)
        return ClassifierStats(
            classification_time=total_time,
            memory_bytes=total_space,
            bytes_per_rule=total_space / max(1, len(self.ruleset)),
            num_trees=len(self.trees),
            num_nodes=sum(s.num_nodes for s in per_tree),
            depth=max(s.depth for s in per_tree),
        )

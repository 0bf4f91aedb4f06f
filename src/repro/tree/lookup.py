"""Packet classification over one or many decision trees.

Rule partitioning (EffiCuts-style or NeuroCuts' top-node partition action)
produces *several* trees for one classifier.  A packet must be classified
against every tree and the highest-priority match wins (Section 2.2).  The
:class:`TreeClassifier` wraps that logic and exposes aggregate time/space
statistics consistent with :mod:`repro.tree.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.obs.serialize import stable_dict
from repro.rules.packet import Packet
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.tree.stats import TreeStats, compute_stats
from repro.tree.tree import DecisionTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.dispatch import CompiledClassifier

#: Batch size at or above which ``classify_batch`` auto-compiles; below it
#: the per-packet interpreter is cheaper than paying the compile.
AUTO_COMPILE_THRESHOLD = 64

#: Engine selection values accepted by :meth:`TreeClassifier.classify_batch`.
BATCH_ENGINES = ("auto", "compiled", "interpreter")


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

    def classify(self, packet: Packet) -> Optional[Rule]:
        """Classify against every tree and return the best-priority match."""
        best: Optional[Rule] = None
        for tree in self.trees:
            match = tree.classify(packet)
            if match is not None and (best is None or match.priority > best.priority):
                best = match
        return best

    def classify_batch(self, packets: Iterable[Packet],
                       engine: str = "auto") -> List[Optional[Rule]]:
        """Classify a sequence of packets.

        ``engine`` selects the execution path:

        * ``"auto"`` (default) — batches of at least
          :data:`AUTO_COMPILE_THRESHOLD` packets go through the compiled
          engine (compiling on first use, cached across calls); smaller
          batches use the per-packet interpreter.
        * ``"compiled"`` — always use the compiled engine.
        * ``"interpreter"`` — always walk the Python node graph (the
          pre-engine behaviour; kept for tests and differential checks).
        """
        if engine not in BATCH_ENGINES:
            raise ValueError(
                f"engine must be one of {BATCH_ENGINES}, got {engine!r}"
            )
        packets = list(packets)
        if engine == "interpreter" or (
            engine == "auto" and len(packets) < AUTO_COMPILE_THRESHOLD
        ):
            return [self.classify(p) for p in packets]
        return self.compile().classify_batch(packets)

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

    def validate(self, packets: Iterable[Packet]) -> Tuple[int, int]:
        """Compare against linear search over a packet sample.

        Returns ``(num_checked, num_mismatches)``; a correct classifier always
        reports zero mismatches.
        """
        checked = 0
        mismatches = 0
        for packet in packets:
            expected = self.ruleset.classify(packet)
            actual = self.classify(packet)
            checked += 1
            expected_prio = expected.priority if expected else None
            actual_prio = actual.priority if actual else None
            if expected_prio != actual_prio:
                mismatches += 1
        return checked, mismatches

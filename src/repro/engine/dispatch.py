"""The compiled classifier: one forest walk over every search tree.

Partitioned classifiers (EffiCuts categories, NeuroCuts top-node partitions,
or simply several trees per :class:`~repro.tree.lookup.TreeClassifier`)
compile into several search trees sharing one distinct-rule list.  The
classifier stores them all in one :class:`~repro.engine.layout.Forest`
beside the table of those rules' boxes and priorities, walks a batch through
every tree at once — one lane per ``(tree, packet)`` pair — and keeps, per
packet, the highest-priority match along the tree axis.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.rules.packet import Packet
from repro.rules.rule import Rule
from repro.engine.cache import DEFAULT_FLOW_CACHE_SIZE, FlowCache
from repro.engine.layout import (
    NO_MATCH_PRIORITY,
    FlatTree,
    Forest,
    check_headers,
    packets_to_array,
    rule_table,
)

#: Lanes walked at once.  Larger batches are cut into runs of whole packets
#: so the walk's temporaries (a dozen int64 vectors of this length) stay
#: cache-sized however many packets and trees a call brings.
_MAX_LANES = 1 << 14


class CompiledClassifier:
    """A fully compiled packet classifier ready for batched execution.

    ``subtrees`` may be views of any forests (fresh from
    :func:`~repro.engine.compile.compile_tree`, or another engine's); their
    blocks are copied into this engine's own :attr:`forest` and
    :attr:`subtrees` become views of that, so an engine generation holds
    exactly one copy of its node and leaf-rule data.  ``rules`` is the list
    the subtrees' slots index; it is adopted, not copied (partial recompiles
    append to it in place and every generation indexes the same storage),
    and the forest's distinct-rule table describes it row for row, extending
    the longest table the subtrees came with.
    """

    def __init__(
        self,
        subtrees: Sequence[FlatTree],
        rules: List[Rule],
        name: str = "",
        flow_cache_size: Optional[int] = None,
    ) -> None:
        subtrees = list(subtrees)
        if not subtrees:
            raise ValueError("a compiled classifier needs at least one tree")
        described = max((tree.forest.table for tree in subtrees),
                        key=lambda table: len(table["priority"]))
        forest = Forest.concatenate(subtrees, rule_table(rules, described))
        views: List[FlatTree] = []
        node_offset = rule_offset = 0
        for source in subtrees:
            views.append(replace(
                source, forest=forest, node_offset=node_offset,
                rule_offset=rule_offset))
            node_offset += source.num_nodes
            rule_offset += source.num_leaf_rules
        self._adopt(forest, views, rules, name, flow_cache_size)

    @classmethod
    def from_forest(cls, forest: Forest, subtrees: Sequence[FlatTree],
                    rules: List[Rule], name: str = "",
                    flow_cache_size: Optional[int] = None
                    ) -> "CompiledClassifier":
        """An engine over ``forest`` as it stands: ``subtrees`` are already
        views of it and nothing is copied (a partial recompile's
        generation, whose re-spanned leaves point past their blocks)."""
        compiled = cls.__new__(cls)
        compiled._adopt(forest, list(subtrees), rules, name, flow_cache_size)
        return compiled

    def _adopt(self, forest: Forest, subtrees: List[FlatTree],
               rules: List[Rule], name: str,
               flow_cache_size: Optional[int]) -> None:
        self.forest = forest
        self.subtrees = subtrees
        self._node_base = np.array([t.node_offset for t in subtrees])
        self._rule_base = np.array([t.rule_offset for t in subtrees])
        self._depth = np.array([t.depth for t in subtrees])
        self.rules = rules
        self.name = name
        self.flow_cache: Optional[FlowCache] = None
        #: Set by compile_classifier / partial_compile_classifier; None for
        #: hand-assembled engines (which can only ever be fully rebuilt).
        self.provenance = None
        if flow_cache_size is not None:
            self.attach_flow_cache(flow_cache_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_subtrees(self) -> int:
        return len(self.subtrees)

    @property
    def num_nodes(self) -> int:
        return sum(tree.num_nodes for tree in self.subtrees)

    @property
    def depth(self) -> int:
        return max(tree.depth for tree in self.subtrees)

    def memory_bytes(self) -> int:
        """Bytes held by every array the walk reads: the forest's columns,
        distinct-rule table included."""
        return self.forest.memory_bytes()

    def describe(self) -> str:
        return (
            f"CompiledClassifier(name={self.name!r}, "
            f"subtrees={self.num_subtrees}, nodes={self.num_nodes}, "
            f"depth={self.depth}, rules={len(self.rules)}, "
            f"bytes={self.memory_bytes()})"
        )

    # ------------------------------------------------------------------ #
    # Flow cache management
    # ------------------------------------------------------------------ #

    def attach_flow_cache(self, capacity: int = DEFAULT_FLOW_CACHE_SIZE) -> FlowCache:
        """Enable (or resize) the LRU flow cache and return it."""
        self.flow_cache = FlowCache(capacity)
        return self.flow_cache

    def detach_flow_cache(self) -> None:
        self.flow_cache = None

    # ------------------------------------------------------------------ #
    # Batched lookup
    # ------------------------------------------------------------------ #

    def match_indices(self, values: np.ndarray) -> np.ndarray:
        """Per-packet index into :attr:`rules` of the winning rule (-1: none).

        ``values`` is an ``(n, 5)`` integer header matrix, checked against
        the field ranges and cast once to the ``uint32`` the walk reads
        (:func:`~repro.engine.layout.check_headers`).  Every
        search tree is consulted and the highest-priority hit wins — the
        earlier tree on ties — matching the tree model's partition /
        multi-tree semantics.
        """
        values = check_headers(values)
        n = len(values)
        step = max(1, _MAX_LANES // len(self.subtrees))
        if n <= step:
            return self._walk(values)
        return np.concatenate([self._walk(values[start:start + step])
                               for start in range(0, n, step)])

    def _walk(self, values: np.ndarray) -> np.ndarray:
        """The fused walk plus the reduce along the tree axis."""
        n = len(values)
        rows = self.forest.lookup(values, self._node_base, self._rule_base,
                                  self._depth)
        found = np.flatnonzero(rows >= 0)
        slot = np.full(len(rows), -1, dtype=np.int64)
        slot[found] = self.forest.rule["rule_index"][rows[found]]
        priority = np.full(len(rows), NO_MATCH_PRIORITY, dtype=np.int64)
        priority[found] = self.forest.table["priority"][slot[found]]
        # argmax returns the first maximum: the earlier tree wins ties, and
        # a packet no tree matched keeps the first lane's -1.
        lane = priority.reshape(len(self.subtrees), n).argmax(axis=0) * n \
            + np.arange(n)
        return slot[lane]

    def lookup_batch(self, values: np.ndarray) -> np.ndarray:
        """Like :meth:`match_indices`, but served through the flow cache.

        Flows repeating *within* the batch are deduplicated: each distinct
        missing 5-tuple goes through the tree walk once and its result is
        fanned out to every packet of the flow.  The cache is probed without
        side effects and updated only once the walk has returned, so a batch
        the walk refuses (:class:`~repro.exceptions.InvalidRangeError`)
        changes neither its entries nor its counters.

        A dormant cache (:mod:`repro.engine.cache`) is skipped: the batch
        goes straight to :meth:`match_indices` and counts only as
        ``bypassed``.
        """
        cache = self.flow_cache
        if cache is None:
            return self.match_indices(values)
        if cache.dormant:
            result = self.match_indices(values)
            cache.bypass(len(result))
            return result
        # tolist() converts the whole batch to Python ints in one C call;
        # the per-row tuples are the same 5-int keys the cache always used.
        keys = list(map(tuple, values.tolist()))
        answers = cache.probe(keys)
        result = np.fromiter((-1 if a is None else a for a in answers),
                             np.int64, len(answers))
        hits = [key for key, answer in zip(keys, answers)
                if answer is not None]
        walked: dict = {}  # distinct missing key -> its walked result
        if len(hits) < len(keys):
            miss_rows = [i for i, answer in enumerate(answers)
                         if answer is None]
            first: dict = {}  # distinct missing key -> its first row
            for i in miss_rows:
                first.setdefault(keys[i], i)
            resolved = self.match_indices(values[list(first.values())])
            walked = dict(zip(first, resolved.tolist()))
            result[miss_rows] = [walked[keys[i]] for i in miss_rows]
        cache.commit(hits, walked)
        return result

    # ------------------------------------------------------------------ #
    # Packet-level API
    # ------------------------------------------------------------------ #

    def classify_batch(self, packets: Iterable[Packet]) -> List[Optional[Rule]]:
        """Classify a batch of packets; returns one Rule (or None) each."""
        values = packets if isinstance(packets, np.ndarray) \
            else packets_to_array(packets)
        indices = self.lookup_batch(values)
        return [self.rules[i] if i >= 0 else None for i in indices]

    def classify(self, packet: Packet) -> Optional[Rule]:
        """Classify a single packet (uses the flow cache when attached)."""
        return self.classify_batch([packet])[0]

"""LRU flow cache for the compiled engine.

Real dataplanes exploit flow locality: packets of one flow share the same
5-tuple, so the full tree walk only has to happen once per flow.  The cache
maps a 5-tuple to the classifier's answer (the index of the matched rule, or
``-1`` for a miss) and evicts least-recently-used flows beyond its capacity.

The cache must be invalidated when the classifier changes; the dispatcher
clears it automatically when a recompilation is detected, and callers doing
in-place rule updates should call :meth:`FlowCache.clear`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.obs.serialize import stable_dict

#: Default number of flows kept by a cache when no capacity is given.
DEFAULT_FLOW_CACHE_SIZE = 4096

FlowKey = Tuple[int, int, int, int, int]


@dataclass
class FlowCacheStats:
    """Hit/miss/eviction counters of one flow cache.

    ``evictions`` counts flows dropped by the LRU capacity bound;
    ``invalidations`` counts flows dropped by :meth:`FlowCache.clear` (rule
    updates, engine swaps).  Serving telemetry reads both directly instead of
    inferring churn from hit-rate dips.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "FlowCacheStats") -> "FlowCacheStats":
        """Accumulate another cache's counters (telemetry across swaps)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        return self

    def as_dict(self) -> dict:
        return stable_dict({
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        })


class FlowCache:
    """A bounded LRU map from packet 5-tuples to classification results."""

    def __init__(self, capacity: int = DEFAULT_FLOW_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError("flow cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = FlowCacheStats()
        self._entries: "OrderedDict[FlowKey, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: FlowKey) -> Optional[int]:
        """The cached rule index for a flow, or None on a cache miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: FlowKey, rule_index: int) -> None:
        """Insert or refresh a flow's classification result."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = rule_index
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def probe(self, keys: Sequence[FlowKey]) -> List[Optional[int]]:
        """Each key's cached rule index, or None; changes no counter and no
        LRU order, so a batch refused after probing leaves no trace."""
        return list(map(self._entries.get, keys))

    def commit(self, hits: Sequence[FlowKey],
               misses: Mapping[FlowKey, int]) -> None:
        """Account one served batch after a :meth:`probe`.

        ``hits`` holds the key of every packet the probe answered, in batch
        order; ``misses`` maps each distinct missing key, in order of first
        appearance, to its walked result.  Counters, LRU order and evictions
        end as one :meth:`get` per hit-or-first-miss packet followed by one
        :meth:`put` per miss would leave them.
        """
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        refresh = self._entries.move_to_end
        for key in hits:
            refresh(key)
        for key, rule_index in misses.items():
            self.put(key, rule_index)

    def entries(self) -> "list[Tuple[FlowKey, int]]":
        """The cached ``(flow key, rule index)`` pairs in LRU order.

        What ships when a tenant slot migrates between serving shards —
        restoring them on the target keeps hit/miss telemetry continuous
        across the move.
        """
        return list(self._entries.items())

    def restore(self, entries: "list[Tuple[FlowKey, int]]",
                stats: FlowCacheStats) -> None:
        """Adopt another cache's entries and counters (slot migration).

        Replaces contents wholesale without touching eviction or
        invalidation counters; entries beyond capacity are dropped oldest
        first (uncounted — they were already accounted by the source).
        """
        self._entries = OrderedDict(entries)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        self.stats = stats

    def clear(self) -> int:
        """Drop every entry; returns how many flows were invalidated.

        The dropped count is added to ``stats.invalidations`` (distinct from
        LRU ``evictions``), so callers invalidating on rule updates get the
        churn attributed correctly.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += dropped
        return dropped

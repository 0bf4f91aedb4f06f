"""LRU flow cache for the compiled engine.

Real dataplanes exploit flow locality: packets of one flow share the same
5-tuple, so the full tree walk only has to happen once per flow.  The cache
maps a 5-tuple to the classifier's answer (the index of the matched rule, or
``-1`` for a miss) and evicts least-recently-used flows beyond its capacity.

The cache must be invalidated when the classifier changes; the dispatcher
clears it automatically when a recompilation is detected, and callers doing
in-place rule updates should call :meth:`FlowCache.clear`.

A cache also judges whether it pays.  Traffic with no flow locality misses
almost every probe, and the probe, the key tuples and the inserts then cost
more than the walks they save.  So after every :data:`PROBE_WINDOW` probed
packets a cache whose hits in that window fall under :data:`MIN_HIT_SHARE`
goes *dormant*: :meth:`CompiledClassifier.lookup_batch
<repro.engine.dispatch.CompiledClassifier.lookup_batch>` walks the next
:data:`DORMANT_PACKETS` packets directly, without probing or storing, and
then probes again for one more window.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.obs.serialize import stable_dict

#: Default number of flows kept by a cache when no capacity is given.
DEFAULT_FLOW_CACHE_SIZE = 4096

#: Probed packets (hits plus distinct misses, the units of
#: :class:`FlowCacheStats`) in one judgement window.
PROBE_WINDOW = 128
#: A window with fewer hits than this share of its probed packets sends the
#: cache dormant.  Hit shares over each engine's first window, traffic seeds
#: 0-9 of the ``perfbench`` serving workloads:
#:
#: ============  =======  ==================
#: workload      engines  first-window share
#: ============  =======  ==================
#: serve_cold         40  at most 0.099
#: serve_hot          40  at least 0.447
#: serve_churn       163  at least 0.431
#: ============  =======  ==================
#:
#: Counted per packet instead (a missing flow's repeats within a batch as
#: misses too) the same runs read at most 0.096, at least 0.336 and at least
#: 0.242; 0.15 clears both tables with room on either side.  A steady-state
#: break-even share would not: ``serve_churn`` still loses to the cache at
#: 0.78-0.83 hits, yet ``serve_hot``'s warm-up windows read below that.
MIN_HIT_SHARE = 0.15
#: Packets a dormant cache lets through to the walk before probing again.
DORMANT_PACKETS = 4096

FlowKey = Tuple[int, int, int, int, int]


@dataclass
class FlowCacheStats:
    """Hit/miss/eviction counters of one flow cache.

    ``evictions`` counts flows dropped by the LRU capacity bound;
    ``invalidations`` counts flows dropped by :meth:`FlowCache.clear` (rule
    updates, engine swaps).  Serving telemetry reads both directly instead of
    inferring churn from hit-rate dips.  ``bypassed`` counts packets served
    while the cache was dormant: neither hits nor misses, so ``hit_rate``
    stays the share of *probed* packets.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    bypassed: int = 0

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
        self.bypassed += other.bypassed
        return self

    def copy(self) -> "FlowCacheStats":
        """An independent copy of every counter."""
        return replace(self)

    def as_dict(self) -> dict:
        return stable_dict({
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bypassed": self.bypassed,
            "hit_rate": self.hit_rate,
        })


class FlowCache:
    """A bounded LRU map from packet 5-tuples to classification results.

    ``dormant`` is how many more packets the batch path serves without the
    cache (0: probing).  It and the open window's tallies live on the cache,
    not in :attr:`stats`, which callers may replace wholesale.
    """

    def __init__(self, capacity: int = DEFAULT_FLOW_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError("flow cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = FlowCacheStats()
        self._entries: "OrderedDict[FlowKey, int]" = OrderedDict()
        self.dormant = 0
        self._window_probed = 0
        self._window_hits = 0

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

        The batch also counts towards the open window; the batch that fills
        it judges it, and sends the cache dormant if the window's hits fall
        under :data:`MIN_HIT_SHARE`.
        """
        self.stats.hits += len(hits)
        self.stats.misses += len(misses)
        refresh = self._entries.move_to_end
        for key in hits:
            refresh(key)
        for key, rule_index in misses.items():
            self.put(key, rule_index)
        probed = self._window_probed + len(hits) + len(misses)
        window_hits = self._window_hits + len(hits)
        if probed >= PROBE_WINDOW:
            if window_hits < MIN_HIT_SHARE * probed:
                self.dormant = DORMANT_PACKETS
            probed = window_hits = 0
        self._window_probed = probed
        self._window_hits = window_hits

    def bypass(self, served: int) -> None:
        """Account ``served`` packets walked while dormant; the batch that
        uses up :attr:`dormant` wakes the cache for a fresh window."""
        self.stats.bypassed += served
        self.dormant = max(0, self.dormant - served)

    def entries(self) -> "list[Tuple[FlowKey, int]]":
        """The cached ``(flow key, rule index)`` pairs in LRU order."""
        return list(self._entries.items())

    def clear(self) -> int:
        """Drop every entry; returns how many flows were invalidated.

        The dropped count is added to ``stats.invalidations`` (distinct from
        LRU ``evictions``), so callers invalidating on rule updates get the
        churn attributed correctly.  Clearing also wakes a dormant cache and
        restarts the window: what it learned was about the old entries.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += dropped
        self.dormant = self._window_probed = self._window_hits = 0
        return dropped

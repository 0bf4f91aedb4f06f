"""Throughput harness for the compiled engine.

Measures packets/second of the compiled engine, without and with the flow
cache, on one packet trace, and checks the engine's answers against linear
search (:meth:`~repro.rules.ruleset.RuleSet.classify`) on a prefix of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.rules.packet import Packet
from repro.engine.cache import FlowCacheStats
from repro.engine.layout import packets_to_array
from repro.tree.validate import validate_classifier

#: Packets checked against linear search (O(packets * rules) in Python).
CHECK_SAMPLE = 2000


@dataclass
class EngineBenchResult:
    """Compiled-engine throughput on one trace, without and with the cache."""

    name: str
    num_packets: int
    compiled_pps: float
    cached_pps: Optional[float]
    compile_seconds: float
    compiled_memory_bytes: int
    num_subtrees: int
    mismatches: int
    #: Flow-cache hit rate over the timed cached pass (None: no cache run).
    cache_hit_rate: Optional[float] = None
    #: LRU evictions during the timed cached pass (None: no cache run).
    cache_evictions: Optional[int] = None
    #: Flow-cache hits during the timed cached pass (None: no cache run).
    #: Kept as a raw integer so scorecards can gate on exact equality.
    cache_hits: Optional[int] = None
    #: Packets the timed cached pass served past a dormant cache (None: no
    #: cache run); see :mod:`repro.engine.cache`.
    cache_bypassed: Optional[int] = None
    #: The same trees under the paper's memory model
    #: (:mod:`repro.tree.stats`), the yardstick for ``compiled_memory_bytes``.
    model_memory_bytes: int = 0

    @property
    def engine_to_model(self) -> float:
        """Compiled engine bytes over the memory model's bytes."""
        return self.compiled_memory_bytes / max(self.model_memory_bytes, 1)

    def bench_record(self, name: Optional[str] = None,
                     config: Optional[dict] = None) -> "BenchRecord":
        """This result as a versioned scorecard entry (area ``"engine"``).

        Structural figures (packet/subtree/mismatch/cache counts) land in
        ``counters`` and are gated at exact equality; rates and wall times
        land in ``timings`` and are informational.
        """
        from repro.obs.bench import BenchRecord

        counters = {
            "num_packets": self.num_packets,
            "mismatches": self.mismatches,
            "compiled_memory_bytes": self.compiled_memory_bytes,
            "num_subtrees": self.num_subtrees,
        }
        if self.cache_hits is not None:
            counters["cache_hits"] = self.cache_hits
        if self.cache_evictions is not None:
            counters["cache_evictions"] = self.cache_evictions
        if self.cache_bypassed is not None:
            counters["cache_bypassed"] = self.cache_bypassed
        timings = {
            "compiled_pps": self.compiled_pps,
            "compile_seconds": self.compile_seconds,
        }
        if self.cached_pps is not None:
            timings["cached_pps"] = self.cached_pps
        if self.cache_hit_rate is not None:
            timings["cache_hit_rate"] = self.cache_hit_rate
        return BenchRecord(name=name or self.name, area="engine",
                           config=config or {}, counters=counters,
                           timings=timings)

    def rows(self) -> List[List[object]]:
        """Table rows for :func:`repro.harness.tables.format_table`: packets
        per second, and the flow cache's speedup over the uncached walk."""
        rows = [["compiled", f"{self.compiled_pps:,.0f}", "1.0x"]]
        if self.cached_pps is not None:
            ratio = self.cached_pps / max(self.compiled_pps, 1e-9)
            label = "compiled+cache"
            if self.cache_hit_rate is not None:
                label += f" ({self.cache_hit_rate:.1%} hits)"
            rows.append([label, f"{self.cached_pps:,.0f}", f"{ratio:.1f}x"])
        return rows


def _time(fn, repeats: int = 3) -> float:
    """Best-of-n wall time of a callable."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_classifier(
    classifier,
    packets: Sequence[Packet],
    flow_cache_size: Optional[int] = None,
    repeats: int = 3,
    check_agreement: bool = True,
) -> EngineBenchResult:
    """Benchmark one classifier's compiled throughput.

    Args:
        classifier: a :class:`~repro.tree.lookup.TreeClassifier`.
        packets: the trace to classify.
        flow_cache_size: when set, also measure a second compiled pass with
            an LRU flow cache of this capacity attached.
        repeats: best-of-n timing repeats per pass.
        check_agreement: count the packets among the first
            :data:`CHECK_SAMPLE` where the engine and linear search disagree.
    """
    packets = list(packets)
    if not packets:
        raise ValueError("cannot benchmark an empty packet trace")
    values = packets_to_array(packets)

    start = time.perf_counter()
    compiled = classifier.compile()
    compile_seconds = time.perf_counter() - start

    # The compiled object is shared via the classifier's compile cache;
    # benchmark with our own cache settings but restore the caller's.
    caller_cache = compiled.flow_cache
    try:
        compiled.flow_cache = None
        compiled_seconds = _time(lambda: compiled.lookup_batch(values),
                                 repeats=repeats)
        compiled_pps = len(packets) / max(compiled_seconds, 1e-12)

        cached_pps = None
        cache_hit_rate = None
        cache_evictions = None
        cache_hits = None
        cache_bypassed = None
        if flow_cache_size is not None:
            cache = compiled.attach_flow_cache(flow_cache_size)
            compiled.lookup_batch(values)  # warm the cache

            def timed_cached_pass() -> None:
                # Reset counters at the start of every repeat so the stats
                # reflect exactly one timed pass, not their accumulation.
                # Dormancy lives on the cache, not in its stats, so it
                # carries from one pass to the next as it would in serving.
                cache.stats = FlowCacheStats()
                compiled.lookup_batch(values)

            cached_seconds = _time(timed_cached_pass, repeats=repeats)
            cached_pps = len(packets) / max(cached_seconds, 1e-12)
            cache_hit_rate = cache.stats.hit_rate
            cache_evictions = cache.stats.evictions
            cache_hits = cache.stats.hits
            cache_bypassed = cache.stats.bypassed
            compiled.flow_cache = None
    finally:
        compiled.flow_cache = caller_cache

    mismatches = 0
    if check_agreement:
        mismatches = validate_classifier(
            classifier, packets=packets[:CHECK_SAMPLE]).num_mismatches

    return EngineBenchResult(
        name=classifier.name,
        num_packets=len(packets),
        compiled_pps=compiled_pps,
        cached_pps=cached_pps,
        compile_seconds=compile_seconds,
        compiled_memory_bytes=compiled.memory_bytes(),
        num_subtrees=compiled.num_subtrees,
        mismatches=mismatches,
        cache_hit_rate=cache_hit_rate,
        cache_evictions=cache_evictions,
        cache_hits=cache_hits,
        cache_bypassed=cache_bypassed,
        model_memory_bytes=classifier.stats().memory_bytes,
    )

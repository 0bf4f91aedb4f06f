"""Throughput harness for the compiled engine.

Measures packets/second of the pure-Python interpreter
(:meth:`~repro.tree.lookup.TreeClassifier.classify_batch` in interpreter
mode) against the compiled engine (with and without the flow cache) on the
same packet trace, and reports the speedup.  The interpreter is timed on a
subsample when the trace is large — it is the slow path being replaced — and
its rate is reported as packets/second so the comparison stays fair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.rules.packet import Packet
from repro.engine.cache import FlowCacheStats
from repro.engine.layout import packets_to_array

#: Interpreter timing subsample (the interpreter is O(packets * depth) in
#: Python; a few thousand packets give a stable rate).
INTERPRETER_SAMPLE = 2000


@dataclass
class EngineBenchResult:
    """Throughput comparison between interpreter and compiled execution."""

    name: str
    num_packets: int
    interpreter_pps: float
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

    @property
    def speedup(self) -> float:
        """Compiled packets/sec over interpreter packets/sec."""
        if self.interpreter_pps <= 0:
            return float("inf")
        return self.compiled_pps / self.interpreter_pps

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
            "interpreter_pps": self.interpreter_pps,
            "compiled_pps": self.compiled_pps,
            "compile_seconds": self.compile_seconds,
            "speedup": self.speedup,
        }
        if self.cached_pps is not None:
            timings["cached_pps"] = self.cached_pps
        if self.cache_hit_rate is not None:
            timings["cache_hit_rate"] = self.cache_hit_rate
        return BenchRecord(name=name or self.name, area="engine",
                           config=config or {}, counters=counters,
                           timings=timings)

    def rows(self) -> List[List[object]]:
        """Table rows for :func:`repro.harness.tables.format_table`."""
        rows = [
            ["interpreter", f"{self.interpreter_pps:,.0f}", "1.0x"],
            ["compiled", f"{self.compiled_pps:,.0f}", f"{self.speedup:.1f}x"],
        ]
        if self.cached_pps is not None:
            ratio = self.cached_pps / max(self.interpreter_pps, 1e-9)
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
    interpreter_sample: int = INTERPRETER_SAMPLE,
    flow_cache_size: Optional[int] = None,
    repeats: int = 3,
    check_agreement: bool = True,
) -> EngineBenchResult:
    """Benchmark one classifier's interpreter vs compiled throughput.

    Args:
        classifier: a :class:`~repro.tree.lookup.TreeClassifier`.
        packets: the trace to classify.
        interpreter_sample: at most this many packets go through the
            interpreter timing loop.
        flow_cache_size: when set, also measure a second compiled pass with
            an LRU flow cache of this capacity attached.
        repeats: best-of-n timing repeats per engine.
        check_agreement: verify compiled results equal interpreter results
            on the interpreter sample.
    """
    packets = list(packets)
    if not packets:
        raise ValueError("cannot benchmark an empty packet trace")
    values = packets_to_array(packets)

    start = time.perf_counter()
    compiled = classifier.compile()
    compile_seconds = time.perf_counter() - start

    sample = packets[: min(interpreter_sample, len(packets))]
    interp_results: List[Optional[object]] = []

    def run_interpreter() -> None:
        interp_results[:] = classifier.classify_batch(sample,
                                                      engine="interpreter")

    interp_seconds = _time(run_interpreter, repeats=repeats)
    interpreter_pps = len(sample) / max(interp_seconds, 1e-12)

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

        mismatches = 0
        if check_agreement:
            compiled_results = compiled.classify_batch(sample)
            for expected, actual in zip(interp_results, compiled_results):
                expected_priority = expected.priority if expected else None
                actual_priority = actual.priority if actual else None
                if expected_priority != actual_priority:
                    mismatches += 1
    finally:
        compiled.flow_cache = caller_cache

    return EngineBenchResult(
        name=classifier.name,
        num_packets=len(packets),
        interpreter_pps=interpreter_pps,
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

"""The metrics layer: counters, gauges, timing histograms, phase spans.

A :class:`MetricsRegistry` is the one bag of telemetry a serving stack
carries.  Three series kinds cover the repo's needs:

* :class:`Counter` — a monotonically growing integer; merge is addition.
* :class:`Gauge` — a last-written level (queue depth, tenant count).  Merge
  takes the **max** — the only associative, commutative, order-free choice
  that still answers "what was the highest level either side saw";
  ``updates`` counts sets and merges by addition.
* :class:`Timing` — a timing histogram that keeps its **raw samples**, so a
  merge concatenates samples and every percentile of the merged series
  equals the percentile computed over the union.

Merging is associative and commutative in the summary view; a serving
report folds the admission front-end's registry into the serving one this
way.  Registries hold only plain containers — no locks, no threads — so
they pickle unchanged.

**Threading.**  A registry assumes the single-serving-thread model of
:mod:`repro.serve`: series are created and read from the serving thread.
The one background writer is an engine builder / retrain observer calling
``Timing.observe`` on a series that already exists — a bare ``list.append``,
atomic under the GIL — so callers that share a series with a background
thread must create it up front (see :class:`~repro.serve.engines.EngineSlot`).

Spans are the cheap way in: ``with registry.span("engine.compile_seconds"):``
times the block with ``perf_counter`` and records one sample.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.obs.serialize import stable_dict

#: Percentiles a timing summary reports (matches the serving layer's
#: latency percentiles).
TIMING_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass
class Counter:
    """A summable event count (packets, batches, swaps...)."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotone; cannot inc({amount})"
            )
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        self.value += other.value
        return self

    def as_dict(self) -> dict:
        return stable_dict({"value": self.value})


@dataclass
class Gauge:
    """A level (queue depth, registered tenants); merge keeps the max."""

    name: str
    value: float = 0.0
    #: How many times the gauge was set; merges by addition.
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def merge(self, other: "Gauge") -> "Gauge":
        self.value = max(self.value, other.value)
        self.updates += other.updates
        return self

    def as_dict(self) -> dict:
        return stable_dict({"value": self.value, "updates": self.updates})


@dataclass
class Timing:
    """A timing histogram holding raw samples (seconds) for exact merges."""

    name: str
    samples: List[float] = field(default_factory=list)

    def observe(self, seconds: float) -> None:
        """Record one duration (an append; GIL-atomic, see module docs)."""
        self.samples.append(float(seconds))

    def observe_many(self, seconds: Sequence[float]) -> None:
        """Record a list or array of durations: ``observe`` on each, as one
        extend."""
        self.samples.extend(np.asarray(seconds, dtype=float).tolist())

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def max(self) -> float:
        return float(np.max(self.samples)) if self.samples else 0.0

    def percentile(self, pct: float) -> float:
        """An exact percentile over the raw samples (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return float(np.percentile(self.samples, pct))

    def merge(self, other: "Timing") -> "Timing":
        self.samples.extend(other.samples)
        return self

    def as_dict(self) -> dict:
        summary = {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "max_seconds": self.max,
        }
        for pct in TIMING_PERCENTILES:
            summary[f"p{pct:g}_seconds"] = self.percentile(pct)
        return stable_dict(summary)


class MetricsRegistry:
    """A picklable bag of named counters, gauges, and timing histograms.

    Series accessors are get-or-create, so instrumentation points never
    need registration boilerplate.  A name may only ever be one kind —
    asking for ``counter("x")`` after ``timing("x")`` raises, which keeps
    merged registries well-typed.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.timings: Dict[str, Timing] = {}

    # ------------------------------------------------------------------ #
    # Series access
    # ------------------------------------------------------------------ #

    def _check_kind(self, name: str, kind: Dict[str, object]) -> None:
        for series in (self.counters, self.gauges, self.timings):
            if series is not kind and name in series:
                raise ValueError(
                    f"metric {name!r} already exists with a different kind"
                )

    def counter(self, name: str) -> Counter:
        self._check_kind(name, self.counters)
        series = self.counters.get(name)
        if series is None:
            series = self.counters[name] = Counter(name)
        return series

    def gauge(self, name: str) -> Gauge:
        self._check_kind(name, self.gauges)
        series = self.gauges.get(name)
        if series is None:
            series = self.gauges[name] = Gauge(name)
        return series

    def timing(self, name: str) -> Timing:
        self._check_kind(name, self.timings)
        series = self.timings.get(name)
        if series is None:
            series = self.timings[name] = Timing(name)
        return series

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a phase: records the block's wall seconds into ``name``.

        The series is created *before* the block runs, so a span around
        code that hands the same series to a background thread stays safe.
        """
        series = self.timing(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            series.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Merge and views
    # ------------------------------------------------------------------ #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in (exact; see module docstring)."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, timing in other.timings.items():
            self.timing(name).merge(timing)
        return self

    def snapshot(self) -> "MetricsRegistry":
        """A detached point-in-time copy of every series.

        Series objects and raw sample lists are cloned (a C-level list
        copy, far cheaper than ``copy.deepcopy`` for big sample sets), so
        the snapshot never moves when the live registry keeps observing —
        what lets a report embed metrics without aliasing the shared
        instance background writers hold.
        """
        result = MetricsRegistry()
        result.counters = {n: Counter(n, c.value)
                           for n, c in self.counters.items()}
        result.gauges = {n: Gauge(n, g.value, g.updates)
                         for n, g in self.gauges.items()}
        result.timings = {n: Timing(n, list(t.samples))
                          for n, t in self.timings.items()}
        return result

    def summary(self) -> dict:
        """Stable-key nested summary: {counters, gauges, timings}."""
        return stable_dict({
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: g.as_dict() for n, g in self.gauges.items()},
            "timings": {n: t.as_dict() for n, t in self.timings.items()},
        })

    def as_dict(self) -> dict:
        """Alias of :meth:`summary` (the uniform serialization surface)."""
        return self.summary()

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.timings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, timings={len(self.timings)})")

"""Observability: unified metrics, bench scorecards, and the regression gate.

This package is the repo's *perf observatory* — the substrate every perf
claim flows through:

* :mod:`repro.obs.metrics` — a lightweight :class:`MetricsRegistry` of
  counters, gauges, and timing histograms.  Registries are picklable and
  *exactly* mergeable: timings keep raw samples, so merged percentiles
  equal those computed over the union.  Phase-timer spans instrument the hot
  serving-lifecycle edges: compile, swap install, retrain job, batch flush,
  queue wait.
* :mod:`repro.obs.bench` — the versioned :class:`BenchRecord` JSON schema
  (``BENCH_<area>.json``): run name, area, config knobs, deterministic
  counters, timing metrics, and an environment fingerprint.
* :mod:`repro.obs.compare` — the regression gate: strict equality on
  config and deterministic counters, timings printed beside the
  baseline's but never judged, non-zero exit on regression via
  ``repro bench compare``.
* :mod:`repro.obs.serialize` — the one stable-key serialization helper the
  scattered ``as_dict()`` implementations route through.

``repro.obs`` sits below every other layer (it imports only numpy), so the
engine, serving, harness, and trace layers can all report through it
without import cycles.
"""

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    bench_filename,
    environment_fingerprint,
    read_bench,
    write_bench,
)
from repro.obs.compare import (
    CheckResult,
    CompareReport,
    compare_records,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timing
from repro.obs.serialize import stable_dict

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "bench_filename",
    "environment_fingerprint",
    "read_bench",
    "write_bench",
    "CheckResult",
    "CompareReport",
    "compare_records",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timing",
    "stable_dict",
]

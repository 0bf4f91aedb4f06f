"""Multi-tenant serving layer over the compiled dataplane engine.

Construction (training, heuristics) and execution (the compiled engine)
already exist; this package is the *serving* side: a
:class:`~repro.serve.registry.TenantRegistry` holds one compiled engine per
tenant behind :class:`~repro.serve.engines.EngineSlot` objects (a rule
update recompiles the edited leaves and swaps the new engine in between
batches), per-packet requests coalesce into vectorised per-tenant batches
(one :func:`~repro.serve.batcher.plan_block` per ``serve()`` call; the
event-at-a-time :class:`~repro.serve.batcher.MicroBatcher` is the
per-event reference, kept here for the planner's oracle and the perf
benchmark's tracing), and the
:class:`~repro.serve.service.ClassificationService` drives a time-ordered
request stream through it all while collecting serving telemetry.

Typical use::

    registry = TenantRegistry()
    registry.register("tenant-a", ruleset, algorithm="HiCuts")
    service = ClassificationService(registry, BatchPolicy(max_batch=64))
    report = service.serve(requests, updates=churn_events)
    print(report.pps, report.latency_ms(99.0), report.cache_hit_rate)
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher, Request
from repro.serve.controller import (
    RetrainController,
    RetrainPolicy,
    RetrainStats,
)
from repro.serve.engines import DEFAULT_RETRAIN_THRESHOLD, EngineSlot, \
    SwapStats
from repro.serve.registry import TenantRegistry, UnknownTenantError
from repro.serve.service import (
    LATENCY_PERCENTILES,
    ClassificationService,
    RuleUpdate,
    ServedBatch,
    ServingReport,
    ServingSession,
)
from repro.serve.stack import ServingConfig, ServingStack

__all__ = [
    "BatchPolicy",
    "MicroBatcher",
    "Request",
    "RetrainController",
    "RetrainPolicy",
    "RetrainStats",
    "DEFAULT_RETRAIN_THRESHOLD",
    "EngineSlot",
    "SwapStats",
    "TenantRegistry",
    "UnknownTenantError",
    "LATENCY_PERCENTILES",
    "ClassificationService",
    "RuleUpdate",
    "ServedBatch",
    "ServingReport",
    "ServingSession",
    "ServingConfig",
    "ServingStack",
]

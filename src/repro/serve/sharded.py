"""Tenant-sharded serving: one front-end driving logical shards.

One :class:`~repro.serve.service.ClassificationService` is single-threaded
by design.  Sharding partitions tenants across N logical shards, each a
full serving stack (registry, engine slots, batch planner, optional retrain
controller) over just its tenants.  One front-end, :func:`serve_sharded`,
routes every event to the shard that owns its tenant on a single trace
clock and merges the shards' telemetry into one report.  Every shard lives
in the front-end's process; admission runs once, in the front-end, over
the whole stream.

Because tenants never share state, sharding is *exact by construction*:
each request is served by the same engine generation it would have seen in
a single-process run, and every per-epoch exactness guarantee carries over
shard-locally.  The merge is exact too — shards keep raw latency arrays
(not pre-computed percentiles), so the merged percentiles equal those of a
single process serving the union.

Without a ``rebalance_policy`` the placement is the static round-robin
:class:`ShardPlan`.  With one, the front-end also moves tenants between
shards mid-run (drain → ship → install; see :func:`serve_sharded`).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.rules.ruleset import RuleSet
from repro.serve.batcher import Request
from repro.serve.controller import RetrainStats
from repro.serve.engines import SwapStats
from repro.serve.rebalance import TelemetrySnapshot
from repro.serve.registry import UnknownTenantError
from repro.serve.service import (
    LATENCY_PERCENTILES,
    RuleUpdate,
    ServingReport,
    ServingSession,
    admit,
    feed,
    fold_admission,
)
from repro.serve.stack import ServingConfig, ServingStack


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of tenants to serving shards.

    Round-robin in registration order, so the plan is a pure function of
    (tenant order, shard count) — the same workload always shards the same
    way, which keeps sharded runs reproducible and lets tests compare
    against a single-process run of the identical scenario.
    """

    num_shards: int
    assignments: Tuple[Tuple[str, ...], ...]

    def shard_of(self, tenant_id: str) -> int:
        """The shard index serving the given tenant."""
        for index, tenants in enumerate(self.assignments):
            if tenant_id in tenants:
                return index
        raise KeyError(f"tenant {tenant_id!r} is not in this plan")


def shard_tenants(tenant_ids: Sequence[str], num_shards: int) -> ShardPlan:
    """Partition tenants round-robin across ``num_shards`` workers.

    Shards can end up empty when there are more shards than tenants; a
    shard that never holds a tenant reports no :class:`ShardOutcome`.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    buckets: List[List[str]] = [[] for _ in range(num_shards)]
    for i, tenant_id in enumerate(tenant_ids):
        buckets[i % num_shards].append(tenant_id)
    return ShardPlan(num_shards=num_shards,
                     assignments=tuple(tuple(b) for b in buckets))


@dataclass
class ShardOutcome:
    """One logical shard's share of a sharded run.

    ``report.latencies`` is always populated (shards record latencies so the
    front-end can merge exact percentiles), and ``epoch_rulesets`` carries
    the per-epoch ruleset history of every tenant the shard ended up with,
    so differential exactness can be verified against recorded batches.
    """

    shard_index: int
    tenant_ids: List[str]
    report: ServingReport
    #: Per tenant: the ruleset snapshot of every engine epoch, in order.
    epoch_rulesets: Dict[str, List[RuleSet]]


def merge_reports(outcomes: Sequence[ShardOutcome],
                  wall_seconds: float) -> ServingReport:
    """Fold shard reports into one, as if a single process served the union.

    Counters sum; latency percentiles are recomputed over the concatenated
    raw latency arrays (exact, not an approximation over per-shard
    percentiles); ``wall_seconds`` is the front-end's end-to-end wall time
    (shards interleave, so summing their walls would be wrong) and is what
    the merged ``pps`` is measured against.  Admission and rebalancing
    counters are the front-end's, not the shards', and are set by
    :func:`serve_sharded` (admission through
    :func:`~repro.serve.service.fold_admission`).
    """
    reports = [o.report for o in outcomes]
    latencies = np.concatenate([
        r.latencies for r in reports
        if r.latencies is not None and len(r.latencies)
    ]) if any(r.latencies is not None and len(r.latencies) for r in reports) \
        else np.zeros(0)
    percentiles = {
        pct: float(np.percentile(latencies, pct)) if len(latencies) else 0.0
        for pct in LATENCY_PERCENTILES
    }
    per_tenant: Dict[str, dict] = {}
    for report in reports:
        per_tenant.update(report.per_tenant)
    num_requests = sum(r.num_requests for r in reports)
    num_batches = sum(r.num_batches for r in reports)
    batches = None
    if any(r.batches is not None for r in reports):
        batches = [b for r in reports if r.batches is not None
                   for b in r.batches]
    # Metrics registries, swap stats, and retrain stats all merge under the
    # same raw-sample contract as the latencies above: counters sum, timing
    # series concatenate, so the merged summary equals a single-process run.
    metrics = MetricsRegistry.merged(
        [r.metrics for r in reports if r.metrics is not None]
    )
    swap_stats = SwapStats()
    for r in reports:
        if r.swap_stats is not None:
            swap_stats.merge(r.swap_stats)
    retrain_stats = None
    if any(r.retrain_stats is not None for r in reports):
        retrain_stats = RetrainStats()
        for r in reports:
            if r.retrain_stats is not None:
                retrain_stats.merge(r.retrain_stats)
    return ServingReport(
        num_requests=num_requests,
        num_batches=num_batches,
        num_updates=sum(r.num_updates for r in reports),
        wall_seconds=wall_seconds,
        engine_seconds=sum(r.engine_seconds for r in reports),
        trace_seconds=max((r.trace_seconds for r in reports), default=0.0),
        latency_percentiles=percentiles,
        mean_batch_size=num_requests / num_batches if num_batches else 0.0,
        cache_hits=sum(r.cache_hits for r in reports),
        cache_lookups=sum(r.cache_lookups for r in reports),
        cache_evictions=sum(r.cache_evictions for r in reports),
        cache_invalidations=sum(r.cache_invalidations for r in reports),
        cache_bypassed=sum(r.cache_bypassed for r in reports),
        swaps=sum(r.swaps for r in reports),
        swap_stalls=sum(r.swap_stalls for r in reports),
        swap_stall_seconds=sum(r.swap_stall_seconds for r in reports),
        per_tenant=per_tenant,
        batches=batches,
        latencies=latencies,
        retrains_triggered=sum(r.retrains_triggered for r in reports),
        retrains_installed=sum(r.retrains_installed for r in reports),
        retrains_discarded=sum(r.retrains_discarded for r in reports),
        retrains_rejected=sum(r.retrains_rejected for r in reports),
        retrain_queue_submitted=sum(r.retrain_queue_submitted
                                    for r in reports),
        migrations=sum(r.migrations for r in reports),
        metrics=metrics,
        swap_stats=swap_stats,
        retrain_stats=retrain_stats,
    )


class _ShardStack(ServingStack):
    """One logical shard: a full serving stack plus its streaming session,
    driven event by event by the front-end.

    Migration needs the source and target on both ends of the same
    trace-clock instant, which is why every shard lives in the front-end's
    process; the :class:`~repro.serve.engines.SlotState` a migration ships
    still goes through a pickle round-trip, so the shipped state is proven
    process-portable.  Sessions never consult ``service.ingest``: admission
    runs once in the front-end, over the whole stream.
    """

    def __init__(self, index: int, config: ServingConfig,
                 tenants: Sequence, rulesets: Dict[str, RuleSet]) -> None:
        super().__init__(config, tenants, rulesets, record_latencies=True)
        self.index = index
        self.session = ServingSession(self.service)
        #: Tenants ever placed here (an emptied shard still reports outcomes).
        self.ever_tenants = bool(tenants)
        #: Migrations that landed here (the import side of each move).
        self.migrations_in = 0


def _migrate_tenant(tenant_id: str, source: _ShardStack,
                    target: _ShardStack) -> None:
    """Drain -> ship -> install: move one quiesced tenant between stacks.

    Caller guarantees the tenant's in-flight batch is drained
    (``queue_depth == 0`` after a ``poll``) and that no retrain is still
    *running* (``settle`` defers the move otherwise).  A finished-but-
    uninstalled retrain lands (or is rejected) here, then the slot state
    crosses a real ``pickle`` round-trip and is installed on the target
    through the same atomic compile-and-install path as tenant
    registration.  Retrain launch counters ship along so the per-tenant
    retrain seed sequence continues unbroken.
    """
    launch_count = 0
    if source.controller is not None:
        source.controller.drain_tenant(tenant_id)
        launch_count = source.controller.export_tenant(tenant_id)
    state = source.registry.export_slot(tenant_id)
    state = pickle.loads(pickle.dumps(state))
    target.registry.import_slot(state)
    if target.controller is not None:
        target.controller.import_tenant(tenant_id, launch_count)
    target.ever_tenants = True
    target.migrations_in += 1


def serve_sharded(
    tenants: Sequence,
    rulesets: Dict[str, RuleSet],
    requests: Sequence[Request],
    updates: Sequence[RuleUpdate] = (),
    config: ServingConfig = ServingConfig(workers=2),
) -> Tuple[List[ShardOutcome], ServingReport, ShardPlan]:
    """Serve a multi-tenant workload on ``config.workers`` logical shards.

    ``tenants`` are the run's tenant specs (anything with ``tenant_id`` /
    ``algorithm`` / ``binth``, as :class:`~repro.serve.stack.ServingStack`
    takes them).  Tenants start on the round-robin :func:`shard_tenants`
    plan, and the front-end drives one streaming
    :class:`~repro.serve.service.ServingSession` per shard on a single
    trace clock:

    * admission control — when ``config.ingest`` is set — runs once, here,
      over the full stream (:func:`~repro.serve.service.admit`); its state
      is per-tenant, so this is exactly the single-process decision
      sequence, and each tenant's ``ingest`` summary is taken over the
      whole run's trace span;
    * arrivals and updates go through the single-process event loop
      (:func:`~repro.serve.service.feed`), each to the shard that owns its
      tenant; an event for a tenant no shard owns raises
      :class:`~repro.serve.registry.UnknownTenantError`.

    With ``config.rebalance_policy`` set, the front-end also re-places
    tenants mid-run:

    1. **Plan** — the first event at or past each interval boundary
       triggers a policy evaluation (the ``k``-th evaluation sees
       ``snapshot.interval == k``) on a frozen
       :class:`~repro.serve.rebalance.TelemetrySnapshot` of live per-shard
       telemetry.  Planned moves become *pending* migrations.
    2. **Drain** — a pending tenant migrates at its next event, once a
       ``poll`` at that event's trace time shows its in-flight batch has
       drained (``queue_depth == 0``).  Waiting for this natural batch
       boundary — rather than force-flushing — keeps batch composition
       identical to a static placement of the same trace, which is what
       the differential tests pin down.
    3. **Ship + install** — the slot state (trees, epoch history, pending
       update counters, flow cache) crosses a pickle round-trip and is
       installed on the target shard via the same double-buffered swap
       path as registration; every later packet of the tenant is still
       classified against its epoch's ruleset, so ``verify_exactness``
       holds straight through the migration boundary.

    A planned move whose tenant has a retrain still *running* at settle
    time is **deferred, never dropped**: the plan stays pending (counted
    once per episode in ``merged_report.rebalance_deferred``) and retries
    at the tenant's later events; a plan still pending when the trace ends
    executes at the quiesce point, after ``finish()`` drained every batch
    and retrain.  Without a policy none of this runs, so a static run
    reports ``rebalance_plans == migrations == 0``.

    Returns ``(outcomes, merged_report, plan)``: one outcome per shard that
    ever held a tenant, the merged telemetry, and the initial placement.
    """
    policy, interval = config.rebalance_policy, config.rebalance_interval
    started = time.perf_counter()
    plan = shard_tenants([t.tenant_id for t in tenants], config.workers)
    by_tenant = {t.tenant_id: t for t in tenants}
    placement: Dict[str, int] = {
        tenant_id: index
        for index, assigned in enumerate(plan.assignments)
        for tenant_id in assigned
    }
    stacks = [
        _ShardStack(index, config, [by_tenant[tid] for tid in assigned],
                    rulesets)
        for index, assigned in enumerate(plan.assignments)
    ]

    # The serving stacks below see the post-admission stream.
    admission, requests = admit(config.ingest, requests, MetricsRegistry())
    next_boundary = interval
    num_plans = 0
    num_deferred = 0
    #: tenant -> target shard, decided by a plan, awaiting a drained queue.
    pending_moves: Dict[str, int] = {}
    #: Tenants whose pending move is deferred by an in-flight retrain
    #: (counted once per deferral episode, not once per retried event).
    deferred_moves: set = set()

    def evaluate(now: float) -> None:
        """Run one policy evaluation if ``now`` crossed a boundary."""
        nonlocal next_boundary, num_plans
        if now < next_boundary:
            return
        # Collapse skipped boundaries: one evaluation per *event* that
        # crosses, then re-arm at the next boundary past ``now`` — gaps in
        # the trace don't spin the planner on identical telemetry.
        next_boundary = interval * (int(now / interval) + 1)
        num_plans += 1
        # The snapshot reads the registries' counters directly: serve what
        # each shard has buffered first, so they are current as of ``now``.
        for stack in stacks:
            stack.session.settle()
        snapshot = TelemetrySnapshot.capture(
            interval=num_plans,
            time=now,
            placements=placement,
            registries=[stack.registry.metrics for stack in stacks],
            queue_depths={
                tenant_id: stacks[index].session.queue_depth(tenant_id)
                for tenant_id, index in placement.items()
            },
            goodput={
                tenant_id: summary["goodput_pps"]
                for tenant_id, summary in
                admission.tenant_summary(now).items()
            } if admission is not None else None,
        )
        for move in policy.plan(snapshot).migrations:
            if placement.get(move.tenant_id) == move.source_shard \
                    and 0 <= move.target_shard < len(stacks):
                pending_moves[move.tenant_id] = move.target_shard

    def settle(tenant_id: str, now: float) -> None:
        """Execute a pending migration once the tenant is quiesced.

        Two things can hold a planned move back, and both leave the plan
        *pending-until-settled* (retried at every later event of the
        tenant, so no plan is ever lost): an undrained in-flight batch
        (the normal batch-boundary wait) and a retrain still running on
        the source shard.  The latter is counted — once per deferral
        episode — in ``rebalance_deferred``; blocking the whole event loop
        on the training job would stall every tenant on the shard behind
        one background retrain.
        """
        nonlocal num_deferred
        target_index = pending_moves.get(tenant_id)
        if target_index is None:
            return
        source_index = placement[tenant_id]
        if source_index == target_index:
            del pending_moves[tenant_id]
            deferred_moves.discard(tenant_id)
            return
        source = stacks[source_index]
        source.session.poll(now)
        if source.session.queue_depth(tenant_id) > 0:
            return  # not a batch boundary yet; retry at the next event
        if source.controller is not None and \
                source.controller.retrain_in_flight(tenant_id):
            # Defer, don't drop: the plan stays pending and the migration
            # executes at a later event once the retrain lands.
            if tenant_id not in deferred_moves:
                deferred_moves.add(tenant_id)
                num_deferred += 1
                source.registry.metrics.counter(
                    "serve.rebalance_deferred").inc()
            return
        _migrate_tenant(tenant_id, source, stacks[target_index])
        placement[tenant_id] = target_index
        del pending_moves[tenant_id]
        deferred_moves.discard(tenant_id)

    def owner(event) -> ServingSession:
        """The session serving an arrival's or update's tenant at its
        stamp, after any rebalancing the event is due to trigger."""
        tenant_id, now = event.tenant_id, event.time
        if tenant_id not in placement:
            raise UnknownTenantError(
                f"tenant {tenant_id!r} is not registered "
                f"(known: {list(placement)})")
        if policy is not None:
            evaluate(now)
            settle(tenant_id, now)
        return stacks[placement[tenant_id]].session

    # try/finally so a mid-trace exception cannot leak the per-stack
    # retrain executors (close() is idempotent; shared pools are left to
    # the process-level registry and its interpreter-exit hook).
    reports: List[ServingReport] = []
    try:
        feed(requests, updates,
             lambda request: owner(request).offer(request),
             lambda update: owner(update).deliver_update(update))
        for stack in stacks:
            reports.append(stack.session.finish())

        # End-of-trace settlement: a move deferred behind a retrain whose
        # tenant had no later event still executes at the quiesce point —
        # finish() flushed every batch and drained every retrain, so
        # nothing can hold it back and no plan is ever lost.
        for tenant_id, target_index in list(pending_moves.items()):
            source_index = placement[tenant_id]
            if source_index != target_index:
                _migrate_tenant(tenant_id, stacks[source_index],
                                stacks[target_index])
                placement[tenant_id] = target_index
            del pending_moves[tenant_id]
            deferred_moves.discard(tenant_id)

        for stack, report in zip(stacks, reports):
            report.migrations = stack.migrations_in
    finally:
        for stack in stacks:
            stack.close()

    outcomes = [
        ShardOutcome(
            shard_index=stack.index,
            tenant_ids=stack.registry.tenants(),
            report=report,
            epoch_rulesets=stack.epoch_rulesets(),
        )
        for stack, report in zip(stacks, reports)
        if stack.ever_tenants
    ]
    merged = merge_reports(outcomes, time.perf_counter() - started)
    merged.rebalance_plans = num_plans
    merged.rebalance_deferred = num_deferred
    return outcomes, fold_admission(merged, admission), plan

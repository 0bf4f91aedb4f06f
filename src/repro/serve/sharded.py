"""Multi-process serving: tenants sharded across workers, telemetry merged.

One :class:`~repro.serve.service.ClassificationService` is single-threaded
by design; to use more cores the layer scales *out*, the classic
shard-the-workload move: tenants are partitioned across N serving workers
(each worker a full serving stack — registry, engine slots, micro-batcher,
optional retrain controller — over just its tenants), the request stream is
routed by tenant to the owning shard, and a front-end merges the shards'
telemetry into one report.

Because tenants never share state, sharding is *exact by construction*:
each request is served by the same engine generation it would have seen in
a single-process run, and every per-epoch exactness guarantee carries over
shard-locally.  The merge is exact too — workers return raw latency arrays
(not pre-computed percentiles), so the merged percentiles equal those of a
single process serving the union.

The shard task (:func:`serve_shard`) is a module-level pure function of a
picklable payload, so it runs unchanged on every
:class:`repro.executors.RolloutExecutor` backend: ``"process"`` for real
multi-core serving, ``"thread"``/``"serial"`` for deterministic tests on
small machines.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.executors import make_executor
from repro.ingest.admission import AdmissionController
from repro.obs.metrics import MetricsRegistry
from repro.rules.ruleset import RuleSet
from repro.serve.batcher import Request
from repro.serve.controller import RetrainStats
from repro.serve.engines import SwapStats
from repro.serve.rebalance import TelemetrySnapshot
from repro.serve.service import (
    LATENCY_PERCENTILES,
    RuleUpdate,
    ServingReport,
)
from repro.serve.stack import ServingConfig, ServingStack


@dataclass(frozen=True)
class ShardTenant:
    """One tenant as a shard worker sees it: id plus engine-build knobs."""

    tenant_id: str
    algorithm: str = "HiCuts"
    binth: int = 8


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

    Shards can end up empty when there are more shards than tenants; such
    shards are skipped at dispatch (no worker is launched for them).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    buckets: List[List[str]] = [[] for _ in range(num_shards)]
    for i, tenant_id in enumerate(tenant_ids):
        buckets[i % num_shards].append(tenant_id)
    return ShardPlan(num_shards=num_shards,
                     assignments=tuple(tuple(b) for b in buckets))


@dataclass
class ShardTask:
    """The picklable payload one serving worker executes.

    Carries everything a worker needs to rebuild its slice of the serving
    stack from scratch: tenant specs and rulesets (engines are compiled
    inside the worker — compiled arrays never cross the process boundary),
    the tenant-filtered request stream and update schedule, and the serving
    config.
    """

    shard_index: int
    tenants: List[ShardTenant]
    rulesets: Dict[str, RuleSet]
    requests: List[Request]
    updates: List[RuleUpdate] = field(default_factory=list)
    #: Applied shard-locally, admission control included.  Exact vs. a
    #: single process: admission state is per-tenant and tenants never share
    #: a shard, so per-shard decisions equal the unsharded ones.
    config: ServingConfig = ServingConfig()


@dataclass
class ShardOutcome:
    """What one serving worker sends back to the front-end.

    ``report.latencies`` is always populated (shards record latencies so the
    front-end can merge exact percentiles), and ``epoch_rulesets`` carries
    each tenant's full per-epoch ruleset history so differential exactness
    can be verified *in the front-end process* against recorded batches.
    """

    shard_index: int
    tenant_ids: List[str]
    report: ServingReport
    #: Per tenant: the ruleset snapshot of every engine epoch, in order.
    epoch_rulesets: Dict[str, List[RuleSet]]
    #: Wall seconds this shard spent inside its serve() call.
    wall_seconds: float = 0.0


#: Process-local latch so the daemonic-downgrade warning fires once per
#: shard worker, not once per retrain-armed shard task it serves.
_DAEMONIC_DOWNGRADE_WARNED = False


def _warn_daemonic_downgrade_once() -> None:
    global _DAEMONIC_DOWNGRADE_WARNED
    if _DAEMONIC_DOWNGRADE_WARNED:
        return
    _DAEMONIC_DOWNGRADE_WARNED = True
    warnings.warn(
        "process-backend retrains cannot run inside a (daemonic) "
        "serving shard worker; falling back to the thread backend",
        RuntimeWarning,
    )


def serve_shard(task: ShardTask) -> ShardOutcome:
    """Serve one shard's tenants (the executor-facing task function)."""
    config = task.config
    retrain_policy = config.retrain_policy
    if retrain_policy is not None and retrain_policy.backend == "process" \
            and retrain_policy.shared_pool_size is None \
            and multiprocessing.current_process().daemon:
        # Pool workers are daemonic and cannot spawn child processes, so a
        # process-backend retrain inside a process-backend shard would die
        # at the first trigger; threads share the worker's core anyway.
        # Shared-pool policies never reach this branch: the pool registry
        # resolves the backend itself (repro.executors.resolve_pool_backend).
        _warn_daemonic_downgrade_once()
        config = replace(config, retrain_policy=replace(retrain_policy,
                                                        backend="thread"))
    stack = ServingStack(config, task.tenants, task.rulesets,
                         record_latencies=True)
    started = time.perf_counter()
    try:
        report = stack.service.serve(task.requests, updates=task.updates)
    finally:
        stack.close()
    wall = time.perf_counter() - started
    return ShardOutcome(
        shard_index=task.shard_index,
        tenant_ids=[t.tenant_id for t in task.tenants],
        report=report,
        epoch_rulesets=stack.epoch_rulesets(),
        wall_seconds=wall,
    )


def merge_reports(outcomes: Sequence[ShardOutcome],
                  wall_seconds: float) -> ServingReport:
    """Fold shard reports into one, as if a single process served the union.

    Counters sum; latency percentiles are recomputed over the concatenated
    raw latency arrays (exact, not an approximation over per-shard
    percentiles); ``wall_seconds`` is the front-end's end-to-end wall time
    (shards overlap, so summing their walls would be wrong) and is what the
    merged ``pps`` is measured against.  ``engine_seconds`` sums CPU-style
    across shards and can therefore exceed the wall on multi-core runs.
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
        rebalance_plans=sum(r.rebalance_plans for r in reports),
        rebalance_deferred=sum(r.rebalance_deferred for r in reports),
        ingest_offered=sum(r.ingest_offered for r in reports),
        ingest_admitted=sum(r.ingest_admitted for r in reports),
        ingest_throttled=sum(r.ingest_throttled for r in reports),
        ingest_shed=sum(r.ingest_shed for r in reports),
        metrics=metrics,
        swap_stats=swap_stats,
        retrain_stats=retrain_stats,
    )


def serve_sharded(
    tenants: Sequence[ShardTenant],
    rulesets: Dict[str, RuleSet],
    requests: Sequence[Request],
    updates: Sequence[RuleUpdate] = (),
    config: ServingConfig = ServingConfig(workers=2),
) -> Tuple[List[ShardOutcome], ServingReport, ShardPlan]:
    """Serve a multi-tenant workload sharded across ``config.workers`` workers.

    The front-end half of the sharded path: plans the tenant partition,
    routes requests and updates to the owning shard, dispatches one
    :class:`ShardTask` per non-empty shard on the ``config.backend``
    executor, and merges the outcomes.  Returns
    ``(outcomes, merged_report, plan)``.

    With ``backend="process"``, per-tenant retrains inside each worker run
    on ``"thread"``-backend controllers regardless of
    ``retrain_policy.backend`` — pool workers are daemonic and cannot spawn
    nested process pools (``serve_shard`` downgrades with a
    ``RuntimeWarning``).

    A config with a ``rebalance_policy`` is served by
    :func:`serve_rebalancing` instead: logical shards driven event-by-event
    in this process, with live tenant migration (``backend`` is unused).
    """
    if config.rebalance_policy is not None:
        return serve_rebalancing(tenants, rulesets, requests, updates, config)
    plan = shard_tenants([t.tenant_id for t in tenants], config.workers)
    by_tenant = {t.tenant_id: t for t in tenants}
    tasks: List[ShardTask] = []
    for index, assigned in enumerate(plan.assignments):
        if not assigned:
            continue
        assigned_set = set(assigned)
        tasks.append(ShardTask(
            shard_index=index,
            tenants=[by_tenant[tid] for tid in assigned],
            rulesets={tid: rulesets[tid] for tid in assigned},
            requests=[r for r in requests if r.tenant_id in assigned_set],
            updates=[u for u in updates if u.tenant_id in assigned_set],
            config=config,
        ))
    executor = make_executor(max(1, len(tasks)), backend=config.backend)
    started = time.perf_counter()
    try:
        outcomes = executor.map(serve_shard, tasks)
    finally:
        executor.shutdown()
    wall = time.perf_counter() - started
    outcomes.sort(key=lambda o: o.shard_index)
    return outcomes, merge_reports(outcomes, wall), plan


# --------------------------------------------------------------------------- #
# The rebalancing front-end (live tenant migration)
# --------------------------------------------------------------------------- #

class _ShardStack(ServingStack):
    """One logical shard in the rebalancing front-end.

    A full serving stack plus its streaming session, driven event-by-event
    by the front-end instead of executing a pre-routed request list.  All
    stacks live in the front-end process: migration needs the source and
    target on both ends of the same trace-clock instant, which a process
    boundary cannot give us — the :class:`~repro.serve.engines.SlotState`
    still goes through a pickle round-trip so the shipped state is proven
    process-portable.  Sessions never consult ``service.ingest``: admission
    runs once in the front-end, over the whole stream.
    """

    def __init__(self, index: int, config: ServingConfig,
                 tenants: Sequence[ShardTenant],
                 rulesets: Dict[str, RuleSet]) -> None:
        super().__init__(config, tenants, rulesets, record_latencies=True)
        self.index = index
        self.session = self.service.session()
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
    crosses a
    real ``pickle`` round-trip — proving every migration this front-end
    performs could equally cross a process boundary — and is installed on
    the target through the same atomic compile-and-install path as tenant
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


def serve_rebalancing(
    tenants: Sequence[ShardTenant],
    rulesets: Dict[str, RuleSet],
    requests: Sequence[Request],
    updates: Sequence[RuleUpdate],
    config: ServingConfig,
) -> Tuple[List[ShardOutcome], ServingReport, ShardPlan]:
    """Serve with live load-aware tenant migration between logical shards.

    The rebalancing counterpart of :func:`serve_sharded`: tenants start on
    the same round-robin plan, but the front-end drives one streaming
    :class:`~repro.serve.service.ServingSession` per shard on a single
    trace clock and re-places tenants mid-run:

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

    Updates are delivered by the front-end on the global event order
    (exactly the single-process semantics), and admission control — when
    ``config.ingest`` is set — runs once in the front-end over the full
    stream, which per-tenant state makes equivalent to single-process
    admission.

    A planned move whose tenant has a retrain still *running* at settle
    time is **deferred, never dropped**: the plan stays pending (counted
    once per episode in ``merged_report.rebalance_deferred``) and retries
    at the tenant's later events; a plan still pending when the trace ends
    executes at the quiesce point, after ``finish()`` drained every batch
    and retrain.

    Returns ``(outcomes, merged_report, plan)`` like :func:`serve_sharded`;
    ``merged_report.migrations`` / ``merged_report.rebalance_plans`` /
    ``merged_report.rebalance_deferred`` count the moves executed, the
    policy evaluations run, and the retrain-deferred move episodes.
    """
    policy, interval = config.rebalance_policy, config.rebalance_interval
    if policy is None:
        raise ValueError("serve_rebalancing needs a rebalance policy")
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

    # Admission runs once, up front, over the whole stream — its state is
    # per-tenant, so this is exactly the single-process decision sequence,
    # and the serving stacks below see the post-admission stream.
    admission: Optional[AdmissionController] = None
    frontend_metrics: Optional[MetricsRegistry] = None
    requests = sorted(requests, key=lambda r: r.time)
    if config.ingest is not None:
        frontend_metrics = MetricsRegistry()
        admission = AdmissionController(config.ingest,
                                        metrics=frontend_metrics)
        requests = admission.admit(requests)

    pending_updates = sorted(updates, key=lambda u: u.time)
    update_index = 0
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
        on the training job (the old behaviour) would stall every tenant
        on the shard behind one background retrain.
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

    def deliver(update: RuleUpdate) -> None:
        evaluate(update.time)
        settle(update.tenant_id, update.time)
        stacks[placement[update.tenant_id]].session.deliver_update(update)

    # try/finally so a mid-trace exception cannot leak the per-stack
    # retrain executors (close() is idempotent; shared pools are left to
    # the process-level registry and its interpreter-exit hook).
    reports: List[ServingReport] = []
    try:
        for request in requests:
            # Global event order, exactly like the single-process loop:
            # every update scheduled at or before this arrival applies
            # first.
            while update_index < len(pending_updates) and \
                    pending_updates[update_index].time <= request.time:
                deliver(pending_updates[update_index])
                update_index += 1
            evaluate(request.time)
            settle(request.tenant_id, request.time)
            stacks[placement[request.tenant_id]].session.offer(request)
        for update in pending_updates[update_index:]:
            deliver(update)

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

    outcomes: List[ShardOutcome] = []
    for stack, report in zip(stacks, reports):
        if not stack.ever_tenants and not report.num_requests:
            continue
        outcomes.append(ShardOutcome(
            shard_index=stack.index,
            tenant_ids=stack.registry.tenants(),
            report=report,
            epoch_rulesets=stack.epoch_rulesets(),
            wall_seconds=report.wall_seconds,
        ))

    wall = time.perf_counter() - started
    merged = merge_reports(outcomes, wall)
    merged.rebalance_plans = num_plans
    merged.rebalance_deferred = num_deferred
    if admission is not None:
        # The frontend owns admission in this mode; fold its counters and
        # per-tenant summaries into the merged report the same way a
        # single-process serve() does.
        merged.ingest_offered = admission.offered
        merged.ingest_admitted = admission.admitted
        merged.ingest_throttled = admission.throttled
        merged.ingest_shed = admission.shed
        last_time = max((s.session.last_time for s in stacks), default=0.0)
        for tenant_id, summary in \
                admission.tenant_summary(last_time).items():
            merged.per_tenant.setdefault(tenant_id, {})["ingest"] = summary
        if merged.metrics is not None and frontend_metrics is not None:
            merged.metrics = MetricsRegistry.merged(
                [merged.metrics, frontend_metrics.snapshot()]
            )
    return outcomes, merged, plan

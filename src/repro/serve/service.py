"""The classification service: the serving loop over tenants and time.

``ClassificationService.serve`` consumes a time-ordered request stream (and
an optional schedule of rule updates), coalesces requests through the
micro-batcher, executes each released batch on the owning tenant's compiled
engine, and reports serving telemetry: packets/second, latency percentiles,
flow-cache hit rates, and hot-swap counters.

Latency accounting uses two clocks on purpose: the *queueing* delay of a
request (from arrival to batch release) is trace time — a property of the
workload and the batching policy, reproducible across machines — while the
*service* delay is the measured wall time of its batch's engine call.  Both
are seconds, and their sum is the reported request latency.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, \
    Tuple

import numpy as np

from repro.engine.layout import packets_to_array
from repro.ingest.admission import AdmissionController, IngestConfig
from repro.obs.metrics import Counter, MetricsRegistry
from repro.rules.rule import Rule
from repro.serve.batcher import BARRIER, Barrier, BatchPolicy, Request, Step, \
    plan_block
from repro.serve.engines import SwapStats
from repro.serve.registry import TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.controller import RetrainController, RetrainStats

#: Percentiles reported by default (p50 / p90 / p99).
LATENCY_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)

#: Column positions in a session's block (see ``ServingSession._settle``).
_TIMES, _CODES, _VALUES, _REQUESTS = range(4)
_ARRIVAL = attrgetter("time")


@dataclass(frozen=True)
class RuleUpdate:
    """A scheduled rule update for one tenant, applied mid-trace.

    Attributes:
        tenant_id: the tenant whose classifier changes.
        time: trace timestamp at which the update arrives; requests that
            arrived earlier are flushed (and served by the old engine)
            before the update is applied.
        adds: rules to insert (must carry fresh, distinct priorities).
        removes: existing rules to delete.
    """

    tenant_id: str
    time: float
    adds: Tuple[Rule, ...] = ()
    removes: Tuple[Rule, ...] = ()


@dataclass
class ServedBatch:
    """One executed engine batch (kept when ``record_batches=True``)."""

    tenant_id: str
    #: Engine generation that served the batch; index into the slot's
    #: ``ruleset_at`` history, which is what differential checks key on.
    epoch: int
    flush_time: float
    wall_seconds: float
    requests: List[Request]
    #: Winning rule priority per request (None = no match).
    priorities: List[Optional[int]]


@dataclass
class ServingReport:
    """Aggregate telemetry of one ``serve`` run."""

    num_requests: int
    num_batches: int
    num_updates: int
    wall_seconds: float
    engine_seconds: float
    trace_seconds: float
    latency_percentiles: Dict[float, float]
    mean_batch_size: float
    cache_hits: int
    cache_lookups: int
    cache_evictions: int
    cache_invalidations: int
    swaps: int
    swap_stalls: int
    swap_stall_seconds: float
    per_tenant: Dict[str, dict]
    batches: Optional[List[ServedBatch]] = None
    #: Per-request latencies in serve order (``record_latencies=True``);
    #: what lets a sharding front-end merge exact percentiles across workers.
    latencies: Optional[np.ndarray] = None
    #: Retrain-loop counters (zero unless a RetrainController was attached).
    retrains_triggered: int = 0
    retrains_installed: int = 0
    retrains_discarded: int = 0
    #: Retrained trees whose time/space objective failed to beat the
    #: incrementally-patched incumbent (quality gate; see RetrainController).
    retrains_rejected: int = 0
    #: Retrain jobs submitted through a *shared* retrain pool (the
    #: fleet-trainer path; zero when controllers own private executors).
    retrain_queue_submitted: int = 0
    #: Live tenant migrations completed (zero outside the rebalancing
    #: sharded path; see repro.serve.rebalance).
    migrations: int = 0
    #: Rebalance plans evaluated on the trace clock (one per interval).
    rebalance_plans: int = 0
    #: Planned migrations deferred because the tenant had a retrain in
    #: flight at settle time; each deferral is retried until it executes,
    #: so no plan is ever lost (see repro.serve.sharded.serve_rebalancing).
    rebalance_deferred: int = 0
    #: Admission-control tally (all zero when no ingestion frontend is
    #: attached).  Invariant: offered == admitted + throttled + shed, and
    #: num_requests == ingest_admitted whenever ingest_offered > 0 — every
    #: admitted packet is served, every rejection is counted, nothing is
    #: silently dropped.
    ingest_offered: int = 0
    ingest_admitted: int = 0
    ingest_throttled: int = 0
    ingest_shed: int = 0
    #: Phase-timer registry snapshot (compile / swap-install / retrain /
    #: batch-flush / queue-wait spans plus request counters), detached
    #: at the end-of-trace quiesce point so later runs and background
    #: builders can't mutate it.  Cumulative over the registry's lifetime:
    #: repeated ``serve()`` calls on the same ``TenantRegistry`` include
    #: the earlier runs' observations.  Merged exactly across shards by
    #: ``merge_reports``.
    metrics: Optional[MetricsRegistry] = None
    #: Swap counters merged over every tenant slot (raw build_seconds kept,
    #: so cross-shard merges stay exact).
    swap_stats: Optional[SwapStats] = None
    #: Retrain-controller counters with raw train_seconds (None when no
    #: controller was attached).
    retrain_stats: Optional["RetrainStats"] = None

    @property
    def pps(self) -> float:
        """Served packets per wall-clock second."""
        return self.num_requests / max(self.wall_seconds, 1e-12)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups \
            else 0.0

    def latency_ms(self, percentile: float) -> float:
        """A reported latency percentile, in milliseconds."""
        return self.latency_percentiles[percentile] * 1e3

    def deterministic_counters(self) -> Dict[str, int]:
        """The telemetry counters that must be identical across replays.

        Wall-clock figures (pps, latencies, build/train seconds) are
        excluded on purpose: they measure the machine, not the run.  Under
        the determinism contract (synchronous swaps, fixed seed) everything
        here is a pure function of the workload, which is what lets bench
        scorecards gate on exact equality.
        """
        return {
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "num_updates": self.num_updates,
            "swaps": self.swaps,
            "swap_stalls": self.swap_stalls,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "retrains_triggered": self.retrains_triggered,
            "retrains_installed": self.retrains_installed,
            "retrains_discarded": self.retrains_discarded,
            "retrains_rejected": self.retrains_rejected,
            "retrain_queue_submitted": self.retrain_queue_submitted,
            "migrations": self.migrations,
            "rebalance_plans": self.rebalance_plans,
            "rebalance_deferred": self.rebalance_deferred,
            "ingest_offered": self.ingest_offered,
            "ingest_admitted": self.ingest_admitted,
            "ingest_throttled": self.ingest_throttled,
            "ingest_shed": self.ingest_shed,
        }

    def rows(self) -> List[List[object]]:
        """Summary rows for :func:`repro.harness.tables.format_table`."""
        rows: List[List[object]] = [
            ["packets served", f"{self.num_requests:,}"],
            ["throughput", f"{self.pps:,.0f} pps"],
            ["batches", f"{self.num_batches:,} "
                        f"(mean {self.mean_batch_size:.1f} pkts)"],
        ]
        for pct in sorted(self.latency_percentiles):
            rows.append([f"latency p{pct:g}", f"{self.latency_ms(pct):.3f} ms"])
        rows.extend([
            ["cache hit rate", f"{self.cache_hit_rate:.1%} "
                               f"({self.cache_hits:,}/{self.cache_lookups:,})"],
            ["cache evictions", f"{self.cache_evictions:,}"],
            ["rule updates", f"{self.num_updates:,}"],
            ["engine swaps", f"{self.swaps:,}"],
            ["swap stalls", f"{self.swap_stalls:,} "
                            f"({self.swap_stall_seconds * 1e3:.1f} ms)"],
        ])
        if self.retrains_triggered:
            rows.append([
                "retrains",
                f"{self.retrains_triggered:,} triggered, "
                f"{self.retrains_installed:,} installed, "
                f"{self.retrains_rejected:,} rejected, "
                f"{self.retrains_discarded:,} discarded",
            ])
        if self.retrain_queue_submitted:
            rows.append([
                "retrain pool",
                f"{self.retrain_queue_submitted:,} jobs via shared pool",
            ])
        if self.migrations or self.rebalance_plans:
            rows.append([
                "rebalancing",
                f"{self.rebalance_plans:,} plans, "
                f"{self.migrations:,} migrations, "
                f"{self.rebalance_deferred:,} deferred",
            ])
        if self.ingest_offered:
            rows.append([
                "admission",
                f"{self.ingest_offered:,} offered: "
                f"{self.ingest_admitted:,} admitted, "
                f"{self.ingest_throttled:,} throttled, "
                f"{self.ingest_shed:,} shed",
            ])
        return rows


class ClassificationService:
    """Serves classification requests for every registered tenant.

    The service is the single *serving thread* the rest of the layer
    assumes: it owns the batcher, calls every slot method, and hosts the
    retrain controller's polling.  Background concurrency (engine builder
    threads, retrain jobs) never touches serving state — finished work is
    *installed* from this thread between batches.  One service instance must
    not be driven from multiple threads; to use more CPUs, shard tenants
    across processes with :mod:`repro.serve.sharded` instead.

    Args:
        registry: tenants to serve (slots are consulted per batch, so
            registrations/updates mid-run are honoured).
        policy: micro-batching knobs.
        record_batches: keep every served batch (with its engine epoch) for
            differential exactness checks.
        record_latencies: additionally report the raw per-request latency
            array, enabling exact percentile merges across sharded workers.
        retrain_controller: a :class:`~repro.serve.controller.RetrainController`
            watching this registry.  The service polls it after every rule
            update and before every batch (so finished retrains install
            promptly), and drains it with the registry at end of trace.
        ingest: attach an ingestion frontend (see :mod:`repro.ingest`):
            every request passes per-tenant admission control before the
            batcher, over-rate traffic is throttled or shed (counted,
            never silently dropped), and admitted requests are re-stamped
            to their admission-queue release times.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        policy: BatchPolicy = BatchPolicy(),
        record_batches: bool = False,
        record_latencies: bool = False,
        retrain_controller: Optional["RetrainController"] = None,
        ingest: Optional[IngestConfig] = None,
    ) -> None:
        self.registry = registry
        self.policy = policy
        self.record_batches = record_batches
        self.record_latencies = record_latencies
        self.retrain_controller = retrain_controller
        self.ingest = ingest

    # ------------------------------------------------------------------ #
    # Serving loop
    # ------------------------------------------------------------------ #

    def serve(self, requests: Iterable[Request],
              updates: Sequence[RuleUpdate] = ()) -> ServingReport:
        """Serve a time-ordered request stream with scheduled rule updates.

        Every request is answered exactly once; none are dropped across
        updates or engine swaps.  Returns the run's telemetry (and, when
        ``record_batches`` is set, every served batch for differential
        verification).
        """
        # Stable sort: equal-timestamp requests keep their stream order, so
        # a given workload always forms the same batches.
        requests = sorted(requests, key=_ARRIVAL)
        admission: Optional[AdmissionController] = None
        if self.ingest is not None:
            # The frontend decides on arrival stamps and re-stamps admitted
            # requests to their queue release times, so the serving loop
            # below sees the post-admission stream — still time-ordered,
            # still deterministic.
            admission = AdmissionController(self.ingest,
                                            metrics=self.registry.metrics)
            requests = admission.admit(requests)
        session = self.session(updates=updates, admission=admission)
        for request in requests:
            session.offer(request)
        return session.finish()

    def session(self, updates: Sequence[RuleUpdate] = (),
                admission: Optional[AdmissionController] = None
                ) -> "ServingSession":
        """Open an incremental serving session (the streaming form of
        :meth:`serve`).

        Offer requests in time order, then :meth:`ServingSession.finish`.
        The rebalancing front-end (:mod:`repro.serve.sharded`) drives
        several sessions side by side — one per logical shard — routing
        each event to the session that currently owns its tenant, which is
        what makes mid-run tenant migration possible at all.
        """
        return ServingSession(self, updates=updates, admission=admission)


class ServingSession:
    """One in-progress serving run, settled a block of arrivals at a time.

    :meth:`offer` only buffers.  Every point that observes the run —
    :meth:`poll`, :meth:`queue_depth`, :meth:`deliver_update`,
    :meth:`settle`, :meth:`finish` — first *settles* the buffer: one pass
    lifts arrival stamp, tenant code and the ``(n, 5)`` header matrix out of
    the buffered :class:`Request` objects, :func:`plan_block` turns the
    stamps, the update barriers and the rows still queued from earlier
    blocks into batch spans, and each span is one ``lookup_batch`` call on
    a slice of the block's columns.  The batches, their order, their flush
    stamps and the engine epoch each one sees are exactly those of feeding
    the same events one at a time through the per-event batcher (the
    per-request loop kept as the oracle in ``tests/reference_serve.py``):
    updates scheduled at construction apply ahead of the first arrival at
    or past their timestamp, batches release by size or deadline, and
    :meth:`finish` applies tail updates, drains every queue, and builds the
    :class:`ServingReport`.

    Offer requests in time order.  The migration hooks are :meth:`poll`
    (advance deadline releases to a trace timestamp without offering
    anything), :meth:`queue_depth` (is a tenant's in-flight batch drained?),
    and :meth:`deliver_update` (route one update now, for front-ends that
    own the update schedule); a front-end that reads the registry's
    counters directly calls :meth:`settle` first.
    """

    def __init__(self, service: ClassificationService,
                 updates: Sequence[RuleUpdate] = (),
                 admission: Optional[AdmissionController] = None) -> None:
        self.service = service
        self.registry = service.registry
        self.admission = admission
        self._pending_updates = sorted(updates, key=lambda u: u.time)
        self._update_index = 0
        #: Arrivals offered since the last settle.
        self._block: List[Request] = []
        #: Tenant -> code, its position in the batcher's queue order (first
        #: arrival or flush in the session); ``_tenants`` is the inverse.
        self._code_of: Dict[str, int] = {}
        self._tenants: List[str] = []
        self._tenant_requests: Dict[int, Counter] = {}
        #: Columns (as ``_settle`` lifts them) of the rows no event has
        #: released yet; None when nothing is queued.
        self._queued: Optional[List[np.ndarray]] = None
        #: Per-request latencies, one array per settled block.
        self._latencies: List[np.ndarray] = []
        self._recorded: List[ServedBatch] = []
        self._num_batches = 0
        self._num_served = 0
        self._num_updates = 0
        self._engine_seconds = 0.0
        self._last_time = 0.0
        self._wall_start = time.perf_counter()
        metrics = self.registry.metrics
        self._flush_timing = metrics.timing("serve.batch_flush_seconds")
        self._queue_timing = metrics.timing("serve.queue_wait_seconds")
        self._request_counter = metrics.counter("serve.requests")
        self._batch_counter = metrics.counter("serve.batches")

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #

    @property
    def last_time(self) -> float:
        """Largest trace timestamp of any event this session has seen."""
        if self._block:
            return max(self._last_time, self._block[-1].time)
        return self._last_time

    def offer(self, request: Request) -> None:
        """Feed one arrival (buffered until the next settle)."""
        self._block.append(request)

    def deliver_update(self, update: RuleUpdate) -> None:
        """Apply one rule update now (mid-stream semantics).

        Deadline-expired queues release first, then the owning tenant's
        queue is flushed so pre-update packets see the pre-update engine.
        """
        self._settle(event=(update.time, update))

    def poll(self, now: float) -> None:
        """Release every queue whose deadline has passed at ``now``.

        Batch composition is poll-frequency-invariant: a deadline-expired
        queue can never gain members (any later arrival would release it
        first), and the flush-time clamp charges latency against the
        deadline either way.  Front-ends use this before a migration check
        so ``queue_depth`` reflects trace time ``now``.
        """
        self._settle(event=(now, None))

    def queue_depth(self, tenant_id: str) -> int:
        """Requests of one tenant still queued (its in-flight batch)."""
        self._settle()
        if self._queued is None:
            return 0
        return int(np.count_nonzero(
            self._queued[_CODES] == self._code_of.get(tenant_id, -1)))

    def settle(self) -> None:
        """Serve everything the buffered arrivals release."""
        self._settle()

    # ------------------------------------------------------------------ #
    # Block settlement
    # ------------------------------------------------------------------ #

    def _settle(self, event: Optional[Tuple[float, Optional[RuleUpdate]]]
                = None, drain: bool = False) -> None:
        """Plan and execute the buffered block, then ``event`` (an update
        delivered now, or a bare poll), then — draining — the end of trace.
        """
        block, self._block = self._block, []
        if not (block or event or drain):
            return
        stamps = [r.time for r in block]
        tenant_ids = [r.tenant_id for r in block]
        # Barriers as (fresh row they precede, stamp, update, polls).  A
        # scheduled update goes ahead of the first arrival at or past its
        # stamp; the ones no arrival reaches are the tail, applied at the
        # drain without a deadline poll.
        updates, barriers = self._pending_updates, []
        while block and self._update_index < len(updates) \
                and updates[self._update_index].time <= stamps[-1]:
            update = updates[self._update_index]
            self._update_index += 1
            barriers.append(
                (bisect_left(stamps, update.time), update.time, update, True))
        if event is not None:
            barriers.append((len(block), *event, True))
        if drain:
            barriers.extend((len(block), update.time, update, False)
                            for update in updates[self._update_index:])
            self._update_index = len(updates)
        self._last_time = max(
            [self._last_time] + stamps[-1:]
            + [stamp for _, stamp, update, _ in barriers
               if update is not None])

        code_of = self._enroll(tenant_ids, barriers)

        # The block's columns: stamps, tenant codes, headers (and the
        # requests themselves when batches are recorded), behind the rows
        # still queued from earlier blocks.
        columns = [
            np.asarray(stamps, dtype=float),
            np.fromiter(map(code_of.__getitem__, tenant_ids), np.int64,
                        len(block)),
            packets_to_array([r.packet for r in block]),
        ]
        if self.service.record_batches:
            requests = np.empty(len(block), dtype=object)
            requests[:] = block
            columns.append(requests)
        arrived = 0
        if self._queued is not None:
            arrived = len(self._queued[_TIMES])
            columns = [np.concatenate(pair)
                       for pair in zip(self._queued, columns)]
        plan = plan_block(
            columns[_TIMES], columns[_CODES], arrived,
            [Barrier(stamp, -1 if update is None else code_of[update.tenant_id],
                     before, polls)
             for before, stamp, update, polls in barriers],
            self.service.policy, self._last_time if drain else None)
        columns = [column[plan.order] for column in columns]
        served: List[Tuple[int, int, int, float, float]] = []
        for step in plan.steps:
            if step.kind != BARRIER:
                served.append(self._execute(columns, step))
            elif barriers[step.code][2] is not None:
                self._apply(barriers[step.code][2])
        self._account(columns[_TIMES], served)
        self._queued = [column[plan.keep] for column in columns] \
            if len(plan.keep) else None

    def _enroll(self, tenant_ids: List[str], barriers: list
                ) -> Dict[str, int]:
        """Give the block's new tenants their codes; returns the mapping.

        Queue order is first arrival *or flush*, so new tenants take their
        codes in the merged order of the two.
        """
        code_of = self._code_of
        firsts = [(tenant_ids.index(tenant_id), 1, 0, tenant_id)
                  for tenant_id in set(tenant_ids).difference(code_of)]
        firsts.extend((before, 0, j, update.tenant_id)
                      for j, (before, _, update, _) in enumerate(barriers)
                      if update is not None
                      and update.tenant_id not in code_of)
        for *_, tenant_id in sorted(firsts):
            if tenant_id not in code_of:
                code_of[tenant_id] = len(self._tenants)
                self._tenants.append(tenant_id)
        return code_of

    def _apply(self, update: RuleUpdate) -> None:
        self._num_updates += 1
        self.registry.apply_update(
            update.tenant_id, adds=update.adds, removes=update.removes
        )
        if self.service.retrain_controller is not None:
            # The update may have pushed the slot past its retrain
            # threshold; trigger the background job right away.
            self.service.retrain_controller.poll_tenant(update.tenant_id)

    def _execute(self, columns: List[np.ndarray], step: Step
                 ) -> Tuple[int, int, int, float, float]:
        """Serve one planned batch: rows ``[start, stop)`` of the block."""
        _, _, code, start, stop, flush_time = step
        tenant_id = self._tenants[code]
        if self.service.retrain_controller is not None:
            # Land a finished background retrain before picking the
            # engine, so the new tree starts serving at the earliest
            # batch boundary after training completes.
            self.service.retrain_controller.poll_tenant(tenant_id)
        slot = self.registry.slot(tenant_id)
        engine = slot.engine()  # installs a finished swap, if any
        epoch = slot.epoch
        began = time.perf_counter()
        indices = engine.lookup_batch(columns[_VALUES][start:stop])
        wall = time.perf_counter() - began
        if self.service.record_batches:
            self._recorded.append(ServedBatch(
                tenant_id=tenant_id,
                epoch=epoch,
                flush_time=flush_time,
                wall_seconds=wall,
                requests=columns[_REQUESTS][start:stop].tolist(),
                priorities=[
                    engine.rules[i].priority if i >= 0 else None
                    for i in indices
                ],
            ))
        return code, start, stop, flush_time, wall

    def _account(self, stamps: np.ndarray,
                 served: List[Tuple[int, int, int, float, float]]) -> None:
        """Telemetry of a block's batches, request by request in the order
        they were served: queueing delay is trace time (flush stamp minus
        arrival), service delay the wall time of the request's batch."""
        if not served:
            return
        codes, starts, stops, flushes, walls = map(np.asarray, zip(*served))
        sizes = stops - starts
        # Row of every served request, batch after batch: a batch's rows
        # are consecutive from its start.
        rows = np.arange(sizes.sum()) \
            + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        waits = np.repeat(flushes, sizes) - stamps[rows]
        self._queue_timing.observe_many(waits)
        self._flush_timing.observe_many(walls)
        self._latencies.append(waits + np.repeat(walls, sizes))
        self._engine_seconds += float(walls.sum())
        self._num_batches += len(served)
        self._num_served += len(rows)
        self._batch_counter.inc(len(served))
        self._request_counter.inc(len(rows))
        per_tenant = np.bincount(codes, weights=sizes).astype(np.int64)
        for code in np.flatnonzero(per_tenant).tolist():
            counter = self._tenant_requests.get(code)
            if counter is None:
                counter = self._tenant_requests[code] = \
                    self.registry.metrics.counter(
                        f"serve.tenant_requests.{self._tenants[code]}")
            counter.inc(int(per_tenant[code]))

    # ------------------------------------------------------------------ #
    # Quiesce
    # ------------------------------------------------------------------ #

    def finish(self) -> ServingReport:
        """Apply tail updates, drain every queue, and build the report."""
        # Updates scheduled after the last arrival still apply (rule churn
        # with no traffic behind it), then the tail queues drain.
        self._settle(drain=True)
        return self._report()

    def _report(self) -> ServingReport:
        if self.service.retrain_controller is not None:
            # Quiesce: land every in-flight retrain before the registry
            # drain installs the resulting engine rebuilds.
            self.service.retrain_controller.drain()
        self.registry.drain()
        wall_seconds = time.perf_counter() - self._wall_start

        admission = self.admission
        per_tenant = self.registry.telemetry()
        if admission is not None:
            for tenant_id, summary in \
                    admission.tenant_summary(self._last_time).items():
                per_tenant.setdefault(tenant_id, {})["ingest"] = summary
        cache = {"hits": 0, "lookups": 0, "evictions": 0, "invalidations": 0}
        swaps = stalls = 0
        stall_seconds = 0.0
        for entry in per_tenant.values():
            cache["hits"] += entry["cache"]["hits"]
            cache["lookups"] += entry["cache"]["hits"] + entry["cache"]["misses"]
            cache["evictions"] += entry["cache"]["evictions"]
            cache["invalidations"] += entry["cache"]["invalidations"]
            swaps += entry["swap"]["swaps"]
            stalls += entry["swap"]["stalls"]
            stall_seconds += entry["swap"]["stall_seconds"]
        latencies = np.concatenate(self._latencies) if self._latencies \
            else np.zeros(0)
        percentiles = dict(zip(
            LATENCY_PERCENTILES,
            np.percentile(latencies, LATENCY_PERCENTILES).tolist()
            if len(latencies) else [0.0] * len(LATENCY_PERCENTILES)))
        controller = self.service.retrain_controller
        retrain_stats = controller.stats if controller is not None else None
        if retrain_stats is not None:
            # Snapshot (the controller keeps mutating its own instance), with
            # the raw-sample list copied so downstream merges can't alias it.
            retrain_stats = replace(
                retrain_stats, train_seconds=list(retrain_stats.train_seconds)
            )
        return ServingReport(
            num_requests=self._num_served,
            num_batches=self._num_batches,
            num_updates=self._num_updates,
            wall_seconds=wall_seconds,
            engine_seconds=self._engine_seconds,
            trace_seconds=self._last_time,
            latency_percentiles=percentiles,
            mean_batch_size=self._num_served / self._num_batches
            if self._num_batches else 0.0,
            cache_hits=cache["hits"],
            cache_lookups=cache["lookups"],
            cache_evictions=cache["evictions"],
            cache_invalidations=cache["invalidations"],
            swaps=swaps,
            swap_stalls=stalls,
            swap_stall_seconds=stall_seconds,
            per_tenant=per_tenant,
            batches=self._recorded if self.service.record_batches else None,
            latencies=latencies if self.service.record_latencies else None,
            retrains_triggered=retrain_stats.triggered if retrain_stats else 0,
            retrains_installed=retrain_stats.installed if retrain_stats else 0,
            retrains_discarded=retrain_stats.discarded if retrain_stats else 0,
            retrains_rejected=retrain_stats.rejected if retrain_stats else 0,
            retrain_queue_submitted=retrain_stats.queued
            if retrain_stats else 0,
            ingest_offered=admission.offered if admission else 0,
            ingest_admitted=admission.admitted if admission else 0,
            ingest_throttled=admission.throttled if admission else 0,
            ingest_shed=admission.shed if admission else 0,
            # Snapshot, like retrain_stats above: the registry is the live
            # shared instance (builder threads and later serve() runs keep
            # writing into it), and the drains above are the one point
            # where no background writer is in flight.
            metrics=self.registry.metrics.snapshot(),
            swap_stats=self.registry.swap_stats(),
            retrain_stats=retrain_stats,
        )

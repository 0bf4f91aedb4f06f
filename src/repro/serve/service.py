"""The classification service: the serving loop over tenants and time.

``ClassificationService.serve`` consumes a request stream (and an optional
schedule of rule updates), runs :func:`~repro.serve.batcher.plan_block` over
each settled block of arrivals, executes each planned batch on the owning
tenant's compiled engine, and reports serving telemetry: packets/second,
latency percentiles, flow-cache hit rates, and hot-swap counters.  Its
front-end is three functions: :func:`admit`, :func:`feed` and
:func:`fold_admission`.

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
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, \
    Sequence, Tuple

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
#: Trace stamp of an arrival or an update.
_STAMP = attrgetter("time")


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
    #: Per-request latencies in serve order (``record_latencies=True``).
    latencies: Optional[np.ndarray] = None
    #: Packets served past a dormant flow cache (see
    #: :mod:`repro.engine.cache`): neither hits nor lookups.
    cache_bypassed: int = 0
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
    #: builders can't mutate it.  Cumulative over the registry's lifetime
    #: (the ``ingest.*`` series: the front-end's): repeated ``serve()``
    #: calls on the same ``TenantRegistry`` include the earlier runs'
    #: observations.
    metrics: Optional[MetricsRegistry] = None
    #: Swap counters merged over every tenant slot (raw build_seconds kept).
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
                               f"({self.cache_hits:,}/{self.cache_lookups:,} "
                               f"probed, {self.cache_bypassed:,} bypassed)"],
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
        if self.ingest_offered:
            rows.append([
                "admission",
                f"{self.ingest_offered:,} offered: "
                f"{self.ingest_admitted:,} admitted, "
                f"{self.ingest_throttled:,} throttled, "
                f"{self.ingest_shed:,} shed",
            ])
        return rows


# --------------------------------------------------------------------------- #
# The front-end: admission, the event loop, the admission fold
# --------------------------------------------------------------------------- #


def admit(ingest: Optional[IngestConfig], requests: Iterable[Request],
          metrics: MetricsRegistry
          ) -> Tuple[Optional[AdmissionController], List[Request]]:
    """The stream a front-end serves, and the controller that admitted it.

    With ``ingest`` set, every request passes per-tenant admission control
    (series written to ``metrics``) and the admitted ones come back
    re-stamped to their queue release times — still time-ordered, still
    deterministic.  Without it the stream is stably sorted by arrival, so
    equal-timestamp requests keep their stream order and a given workload
    always forms the same batches.
    """
    if ingest is None:
        return None, sorted(requests, key=_STAMP)
    admission = AdmissionController(ingest, metrics=metrics)
    return admission, admission.admit(requests)


def feed(requests: Sequence[Request], updates: Sequence[RuleUpdate],
         offer: Callable[[Request], None],
         deliver_update: Callable[[RuleUpdate], None]) -> None:
    """Feed a time-ordered stream and an update schedule, in event order.

    Each update (in stamp order) is delivered after every arrival stamped
    before it and ahead of the first arrival at or past its stamp; updates
    past the last arrival are delivered the same way, after it.  The
    stream is cut at each update stamp by bisection, so between updates the
    loop is one ``offer`` per arrival and nothing else.
    """
    start = 0
    for update in sorted(updates, key=_STAMP):
        stop = bisect_left(requests, update.time, start, key=_STAMP)
        for request in requests[start:stop]:
            offer(request)
        deliver_update(update)
        start = stop
    for request in requests[start:]:
        offer(request)


def fold_admission(report: ServingReport,
                   admission: Optional[AdmissionController]) -> ServingReport:
    """Fold a front-end's admission tally into its finished report.

    The ``ingest_*`` counters, each tenant's ``ingest`` summary over the
    run's trace span, and the series admission wrote (goodput gauges
    included) join the report.  Admission's registry is the front-end's
    own, never a serving registry, so nothing is counted twice.
    """
    if admission is None:
        return report
    report.ingest_offered = admission.offered
    report.ingest_admitted = admission.admitted
    report.ingest_throttled = admission.throttled
    report.ingest_shed = admission.shed
    for tenant_id, summary in \
            admission.tenant_summary(report.trace_seconds).items():
        report.per_tenant.setdefault(tenant_id, {})["ingest"] = summary
    report.metrics.merge(admission.metrics)
    return report


class ClassificationService:
    """Serves classification requests for every registered tenant.

    The service is the single *serving thread* the rest of the layer
    assumes: its sessions plan every batch with
    :func:`~repro.serve.batcher.plan_block`, it calls every slot method, and
    it hosts the retrain controller's polling.  Background concurrency
    (engine builder threads, retrain jobs) never touches serving state —
    finished work is *installed* from this thread between batches.  One
    service instance must not be driven from multiple threads.

    Args:
        registry: tenants to serve (slots are consulted per batch, so
            registrations/updates mid-run are honoured).
        policy: micro-batching knobs.
        record_batches: keep every served batch (with its engine epoch) for
            differential exactness checks.
        record_latencies: additionally report the raw per-request latency
            array.
        retrain_controller: a :class:`~repro.serve.controller.RetrainController`
            watching this registry.  The service polls it after every rule
            update and before every batch (so finished retrains install
            promptly), and drains it with the registry at end of trace.
        ingest: attach an ingestion frontend (see :mod:`repro.ingest`):
            every request passes per-tenant admission control before it is
            planned into a batch, over-rate traffic is throttled or shed
            (counted, never silently dropped), and admitted requests are
            re-stamped to their admission-queue release times.
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
        #: What admission writes: the front-end's own series, cumulative
        #: over the service's ``serve()`` calls as the registry's are.
        self.admission_metrics = MetricsRegistry()

    def serve(self, requests: Iterable[Request],
              updates: Sequence[RuleUpdate] = ()) -> ServingReport:
        """Serve a request stream with scheduled rule updates.

        Every request is answered exactly once; none are dropped across
        updates or engine swaps.  Returns the run's telemetry (and, when
        ``record_batches`` is set, every served batch for differential
        verification).
        """
        admission, requests = admit(self.ingest, requests,
                                    self.admission_metrics)
        session = ServingSession(self)
        feed(requests, updates, session.offer, session.deliver_update)
        return fold_admission(session.finish(), admission)


class ServingSession:
    """One in-progress serving run, settled a block of arrivals at a time.

    :meth:`offer` only buffers.  Every point that observes the run —
    :meth:`poll`, :meth:`queue_depth`, :meth:`deliver_update`,
    :meth:`settle`, :meth:`finish` — first *settles* the buffer: one pass
    lifts arrival stamp, tenant code and the ``(n, 5)`` header matrix out of
    the buffered :class:`Request` objects, :func:`plan_block` turns the
    stamps, the delivered event and the rows still queued from earlier
    blocks into batch spans, and each span is one ``lookup_batch`` call on
    a slice of the block's columns.  The batches, their order, their flush
    stamps and the engine epoch each one sees are exactly those of feeding
    the same events one at a time through the per-event batcher (the
    per-request loop kept as the oracle in ``tests/reference_serve.py``):
    batches release by size or deadline, an update releases expired
    deadlines and then its own tenant's queue, and :meth:`finish` drains
    every queue and builds the :class:`ServingReport`.

    Offer requests in time order; :meth:`deliver_update` is the only way a
    session learns of a rule update (:func:`feed` interleaves a schedule).
    A caller driving a session by hand can observe it mid-stream:
    :meth:`poll` advances deadline releases to a trace timestamp without
    offering anything, :meth:`queue_depth` reads a tenant's in-flight batch,
    and :meth:`settle` serves what the buffered arrivals release.
    """

    def __init__(self, service: ClassificationService) -> None:
        self.service = service
        self.registry = service.registry
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
        self._settle(update.time, update)

    def poll(self, now: float) -> None:
        """Release every queue whose deadline has passed at ``now``.

        Batch composition is poll-frequency-invariant: a deadline-expired
        queue can never gain members (any later arrival would release it
        first), and the flush-time clamp charges latency against the
        deadline either way.
        """
        self._settle(now)

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

    def _settle(self, stamp: Optional[float] = None,
                update: Optional[RuleUpdate] = None,
                drain: bool = False) -> None:
        """Plan and execute the buffered block, then the event at ``stamp``
        (``update`` delivered now, or a bare poll), then — draining — the
        end of trace.
        """
        block, self._block = self._block, []
        if not block and stamp is None and not drain:
            return
        stamps = [r.time for r in block]
        tenant_ids = [r.tenant_id for r in block]
        self._last_time = max([self._last_time] + stamps[-1:]
                              + ([update.time] if update is not None else []))
        code_of = self._enroll(tenant_ids, update)

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
        # The event comes after every buffered arrival.
        barriers = [] if stamp is None else [Barrier(
            stamp, -1 if update is None else code_of[update.tenant_id],
            len(block))]
        plan = plan_block(columns[_TIMES], columns[_CODES], arrived,
                          barriers, self.service.policy,
                          self._last_time if drain else None)
        columns = [column[plan.order] for column in columns]
        served: List[Tuple[int, int, int, float, float]] = []
        for step in plan.steps:
            if step.kind != BARRIER:
                served.append(self._execute(columns, step))
            elif update is not None:
                self._apply(update)
        self._account(columns[_TIMES], served)
        self._queued = [column[plan.keep] for column in columns] \
            if len(plan.keep) else None

    def _enroll(self, tenant_ids: List[str], update: Optional[RuleUpdate]
                ) -> Dict[str, int]:
        """Give the block's new tenants their codes; returns the mapping.

        Queue order is first arrival *or flush*: new tenants take their
        codes in first-arrival order, then an update's tenant (its flush
        comes after every buffered arrival).
        """
        code_of = self._code_of
        new = set(tenant_ids).difference(code_of)
        for tenant_id in sorted(new, key=tenant_ids.index):
            code_of[tenant_id] = len(self._tenants)
            self._tenants.append(tenant_id)
        if update is not None and update.tenant_id not in code_of:
            code_of[update.tenant_id] = len(self._tenants)
            self._tenants.append(update.tenant_id)
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
        """Drain every queue and build the report."""
        self._settle(drain=True)
        return self._report()

    def _report(self) -> ServingReport:
        if self.service.retrain_controller is not None:
            # Quiesce: land every in-flight retrain before the registry
            # drain installs the resulting engine rebuilds.
            self.service.retrain_controller.drain()
        self.registry.drain()
        wall_seconds = time.perf_counter() - self._wall_start

        per_tenant = self.registry.telemetry()
        cache = {"hits": 0, "lookups": 0, "evictions": 0, "invalidations": 0,
                 "bypassed": 0}
        swaps = stalls = 0
        stall_seconds = 0.0
        for entry in per_tenant.values():
            cache["hits"] += entry["cache"]["hits"]
            cache["lookups"] += entry["cache"]["hits"] + entry["cache"]["misses"]
            cache["evictions"] += entry["cache"]["evictions"]
            cache["invalidations"] += entry["cache"]["invalidations"]
            cache["bypassed"] += entry["cache"]["bypassed"]
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
            cache_bypassed=cache["bypassed"],
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
            # Snapshot, like retrain_stats above: the registry is the live
            # shared instance (builder threads and later serve() runs keep
            # writing into it), and the drains above are the one point
            # where no background writer is in flight.
            metrics=self.registry.metrics.snapshot(),
            swap_stats=self.registry.swap_stats(),
            retrain_stats=retrain_stats,
        )

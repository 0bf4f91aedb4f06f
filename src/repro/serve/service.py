"""The classification service: the serving loop over tenants and time.

``ClassificationService.serve`` consumes a request stream (and an optional
schedule of rule updates), runs :func:`~repro.serve.batcher.plan_block` once
over the whole call — every arrival, every update — executes each planned
batch on the owning tenant's compiled engine, and reports serving
telemetry: packets/second, latency percentiles, flow-cache hit rates, and
hot-swap counters.

Latency accounting uses two clocks on purpose: the *queueing* delay of a
request (from arrival to batch release) is trace time — a property of the
workload and the batching policy, reproducible across machines — while the
*service* delay is the measured wall time of its batch's engine call.  Both
are seconds, and their sum is the reported request latency.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, \
    Tuple

import numpy as np

from repro.engine.layout import packets_to_array
from repro.ingest.admission import AdmissionController, IngestConfig
from repro.obs.metrics import MetricsRegistry
from repro.rules.rule import Rule
from repro.serve.batcher import BARRIER, Barrier, BatchPolicy, Request, Step, \
    plan_block
from repro.serve.engines import SwapStats
from repro.serve.registry import TenantRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.controller import RetrainController, RetrainStats

#: Percentiles reported by default (p50 / p90 / p99).
LATENCY_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)

#: Column positions in a session's lifted arrivals (see
#: ``ServingSession.finish``).
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
    #: Wall seconds from the session's start to its last batch and update,
    #: engine rebuilds included.  Retrain training is not counted on any
    #: backend: neither the end-of-trace quiesce (waiting for in-flight
    #: retrains to land) nor the time the serving thread spends launching a
    #: retrain job, which on the serial backend is the whole training.
    #: So ``pps`` measures serving.
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
    #: Always 0: updates never wait for a rebuild any more.  Kept, with its
    #: ``deterministic_counters`` key, because the frozen perfbench/ harness
    #: reads it (ROADMAP item 10).
    swap_stalls: int
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
    #: at the end of the run so later runs can't mutate it.  Cumulative
    #: over the registry's lifetime (the ``ingest.*`` series: the
    #: front-end's): repeated ``serve()`` calls on the same
    #: ``TenantRegistry`` include the earlier runs' observations.
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
        the determinism contract (serial retrains, fixed seed) everything
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
        ])
        if self.retrains_triggered:
            rows.append([
                "retrains",
                f"{self.retrains_triggered:,} triggered, "
                f"{self.retrains_installed:,} installed, "
                f"{self.retrains_rejected:,} rejected, "
                f"{self.retrains_discarded:,} discarded",
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
    assumes: its sessions plan every batch with
    :func:`~repro.serve.batcher.plan_block`, it calls every slot method, and
    it hosts the retrain controller's polling.  Engine rebuilds run on this
    thread at each update's barrier; the one background concurrency, a
    retrain job, never touches serving state — its finished tree is
    *installed* from this thread between batches.  One service instance
    must not be driven from multiple threads.

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
            promptly), and drains it at end of trace.
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
        admission = None
        if self.ingest is None:
            # A stable sort: equal-timestamp requests keep their stream
            # order, so a given workload always forms the same batches.
            requests = sorted(requests, key=_STAMP)
        else:
            # Admitted requests come back re-stamped to their queue
            # release times: still time-ordered, still deterministic.
            admission = AdmissionController(self.ingest,
                                            metrics=self.admission_metrics)
            requests = admission.admit(requests)
        session = ServingSession(self)
        for request in requests:
            session.offer(request)
        report = session.finish(updates)
        if admission is not None:
            # Each tenant's ``ingest`` summary over the run's trace span,
            # their summed tally, and the series admission wrote.  Its
            # registry is the front-end's own, never a serving registry,
            # so nothing is counted twice.
            summary = admission.tenant_summary(report.trace_seconds)
            for tenant_id, entry in summary.items():
                report.per_tenant.setdefault(tenant_id, {})["ingest"] = entry
            entries = summary.values()
            report.ingest_offered = sum(e["offered"] for e in entries)
            report.ingest_admitted = sum(e["admitted"] for e in entries)
            report.ingest_throttled = sum(e["throttled"] for e in entries)
            report.ingest_shed = sum(e["shed"] for e in entries)
            report.metrics.merge(admission.metrics)
        return report


class ServingSession:
    """One ``serve()`` run, planned and executed whole.

    :meth:`offer` only buffers; :meth:`finish` does the work, once.  One
    pass lifts arrival stamp, tenant code and the ``(n, 5)`` header matrix
    out of the buffered :class:`Request` objects, :func:`plan_block` turns
    the stamps and the update schedule into batch spans, and each span is
    one ``lookup_batch`` call on a slice of those columns.  The batches,
    their order, their flush stamps and the engine epoch each one sees are
    exactly those of feeding the same events one at a time through the
    per-event batcher (the per-request loop kept as the oracle in
    ``tests/reference_serve.py``): batches release by size or deadline; an
    update comes after every arrival stamped before it, releases expired
    deadlines and then its own tenant's queue; the end of the trace drains
    every queue.  Offer requests in time order.
    """

    def __init__(self, service: ClassificationService) -> None:
        self.service = service
        self.registry = service.registry
        #: Arrivals offered so far.
        self._arrivals: List[Request] = []
        #: Tenant per code: the batcher's queue order (see ``_queue_order``).
        self._tenants: List[str] = []
        #: Per-request latencies, in serve order.
        self._latencies: List[np.ndarray] = []
        self._recorded: List[ServedBatch] = []
        self._num_batches = 0
        self._num_served = 0
        self._num_updates = 0
        self._engine_seconds = 0.0
        self._last_time = 0.0
        self._wall_start = time.perf_counter()
        self._launched_before = self._launch_seconds()
        metrics = self.registry.metrics
        self._flush_timing = metrics.timing("serve.batch_flush_seconds")
        self._queue_timing = metrics.timing("serve.queue_wait_seconds")
        self._request_counter = metrics.counter("serve.requests")
        self._batch_counter = metrics.counter("serve.batches")

    def offer(self, request: Request) -> None:
        """Buffer one arrival (served by :meth:`finish`)."""
        self._arrivals.append(request)

    def finish(self, updates: Sequence[RuleUpdate] = ()) -> ServingReport:
        """Serve the buffered arrivals and ``updates`` as one plan, drain
        every queue at the end of the trace, and build the report."""
        arrivals, self._arrivals = self._arrivals, []
        updates = sorted(updates, key=_STAMP)
        stamps = [r.time for r in arrivals]
        tenant_ids = [r.tenant_id for r in arrivals]
        # Each update comes ahead of the first arrival at or past its stamp.
        befores = [bisect_left(stamps, update.time) for update in updates]
        self._tenants = _queue_order(tenant_ids, updates, befores)
        code_of = {tenant_id: code
                   for code, tenant_id in enumerate(self._tenants)}
        self._last_time = max([self._last_time] + stamps[-1:]
                              + [update.time for update in updates[-1:]])

        # The arrivals' columns: stamps, tenant codes, headers (and the
        # requests themselves when batches are recorded).
        columns = [
            np.asarray(stamps, dtype=float),
            np.fromiter(map(code_of.__getitem__, tenant_ids), np.int64,
                        len(arrivals)),
            packets_to_array([r.packet for r in arrivals]),
        ]
        if self.service.record_batches:
            requests = np.empty(len(arrivals), dtype=object)
            requests[:] = arrivals
            columns.append(requests)
        barriers = [Barrier(update.time, code_of[update.tenant_id], before)
                    for update, before in zip(updates, befores)]
        plan = plan_block(columns[_TIMES], columns[_CODES], barriers,
                          self.service.policy, self._last_time)
        columns = [column[plan.order] for column in columns]
        served: List[Tuple[int, int, int, float, float]] = []
        for step in plan.steps:
            if step.kind == BARRIER:
                self._apply(updates[step.code])
            else:
                served.append(self._execute(columns, step))
        self._account(columns[_TIMES], served)
        return self._report()

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
        """Serve one planned batch: rows ``[start, stop)`` of the columns."""
        _, _, code, start, stop, flush_time = step
        tenant_id = self._tenants[code]
        if self.service.retrain_controller is not None:
            # Land a finished background retrain before picking the
            # engine, so the new tree starts serving at the earliest
            # batch boundary after training completes.
            self.service.retrain_controller.poll_tenant(tenant_id)
        slot = self.registry.slot(tenant_id)
        engine = slot.engine()
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
        """Telemetry of the run's batches, request by request in the order
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
            self.registry.metrics.counter(
                f"serve.tenant_requests.{self._tenants[code]}"
            ).inc(int(per_tenant[code]))

    def _launch_seconds(self) -> float:
        controller = self.service.retrain_controller
        return controller.launch_seconds if controller is not None else 0.0

    def _report(self) -> ServingReport:
        # The run's clock stops before the quiesce and leaves out retrain
        # launches (see ``wall_seconds``).
        wall_seconds = time.perf_counter() - self._wall_start \
            - (self._launch_seconds() - self._launched_before)
        if self.service.retrain_controller is not None:
            # Quiesce: land (adopt and compile) every in-flight retrain.
            self.service.retrain_controller.drain()

        per_tenant = self.registry.telemetry()
        cache = {"hits": 0, "lookups": 0, "evictions": 0, "invalidations": 0,
                 "bypassed": 0}
        swaps = 0
        for entry in per_tenant.values():
            cache["hits"] += entry["cache"]["hits"]
            cache["lookups"] += entry["cache"]["hits"] + entry["cache"]["misses"]
            cache["evictions"] += entry["cache"]["evictions"]
            cache["invalidations"] += entry["cache"]["invalidations"]
            cache["bypassed"] += entry["cache"]["bypassed"]
            swaps += entry["swap"]["swaps"]
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
            swap_stalls=0,
            per_tenant=per_tenant,
            batches=self._recorded if self.service.record_batches else None,
            latencies=latencies if self.service.record_latencies else None,
            retrains_triggered=retrain_stats.triggered if retrain_stats else 0,
            retrains_installed=retrain_stats.installed if retrain_stats else 0,
            retrains_discarded=retrain_stats.discarded if retrain_stats else 0,
            retrains_rejected=retrain_stats.rejected if retrain_stats else 0,
            # Snapshot, like retrain_stats above: the registry is the live
            # shared instance, and later serve() runs keep writing into it.
            metrics=self.registry.metrics.snapshot(),
            swap_stats=self.registry.swap_stats(),
            retrain_stats=retrain_stats,
        )


def _queue_order(tenant_ids: List[str], updates: Sequence[RuleUpdate],
                 befores: List[int]) -> List[str]:
    """The run's tenants in the batcher's queue order: by first event, an
    arrival or an update's flush.

    Update ``j`` is event ``befores[j] + j``; arrival ``i`` comes after
    every update before it, so it is event ``i`` plus their number.
    """
    first: Dict[str, int] = {}
    for j, (update, before) in enumerate(zip(updates, befores)):
        first.setdefault(update.tenant_id, before + j)
    i = -1
    for tenant_id in dict.fromkeys(tenant_ids):  # in first-arrival order
        i = tenant_ids.index(tenant_id, i + 1)
        event = i + bisect_right(befores, i)
        first[tenant_id] = min(first.get(tenant_id, event), event)
    return sorted(first, key=first.__getitem__)

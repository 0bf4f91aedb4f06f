"""Admission control: token buckets, bounded queues, congestion signals.

The :class:`AdmissionController` is the synchronous, deterministic
ingestion frontend (``run_serving`` drives it inline when the serving
config carries an :class:`IngestConfig`).  Every offered request lands in
exactly one of three outcomes:

* **admitted** — a token was available and the tenant's admission queue has
  room.  The request is stamped with its queue *release* time (the bounded
  per-tenant queue drains at ``drain_rate``, modelling the hand-off into
  the dataplane) and forwarded; ``release - arrival`` is the queue delay
  recorded in ``ingest.queue_delay_seconds``.
* **throttled** — the tenant's token bucket is empty: the offered rate
  exceeds ``tenant_rate`` beyond the ``tenant_burst`` allowance.  The
  decision carries ``retry_after`` so sources can pace themselves.
* **shed** — the admission queue is at ``queue_limit`` (the HARD congestion
  level).  With the default ``drain_rate == tenant_rate`` the backlog of a
  bucket-conforming tenant is bounded by ``tenant_burst``, so shedding only
  occurs when the queue is provisioned below the burst allowance — the
  design goal lifted from SFC/L4Span: signal (SOFT) and throttle *before*
  queues overflow, and never tail-drop silently.

Congestion is signalled at two levels *before* shedding: **SOFT** engages
when queue occupancy crosses ``soft_fraction * queue_limit`` or the
head-of-line age crosses ``soft_age``; with ``adaptive_sources=True``
(the default) a SOFT-signalled tenant's subsequent arrivals are re-paced to
its sustained rate — the near-source flow control of the SFC design, on the
virtual clock so it stays deterministic.  **HARD** (queue full) sheds.

Everything runs on the trace clock: decisions are a pure function of the
offered (tenant, time) sequence and the config, which is what makes the
over-rate scenarios replay bit-identically — and because all state is
per-tenant and tenants are disjoint across serving shards, per-shard
admission equals single-process admission *exactly* (the same argument
that makes tenant sharding exact in :mod:`repro.serve.sharded`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, \
    Tuple

from repro.ingest.bucket import TokenBucket
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.batcher import Request

#: Decision outcomes (the three-way partition every offer falls into).
ADMITTED = "admitted"
THROTTLED = "throttled"
SHED = "shed"


class CongestionLevel(enum.IntEnum):
    """Two-level congestion signal driven by queue occupancy and age."""

    OK = 0
    #: Sources should slow to the tenant's sustained rate.
    SOFT = 1
    #: The admission queue is full; new arrivals are shed (counted).
    HARD = 2


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of the ingestion frontend (one config for every tenant).

    Attributes:
        tenant_rate: sustained admitted packets/sec per tenant (token
            refill rate).
        tenant_burst: bucket capacity — packets a tenant may send back to
            back after idling.
        queue_limit: bounded per-tenant admission queue capacity; occupancy
            at the limit is the HARD level (shed at admission).
        drain_rate: rate the admission queue hands packets to the serving
            thread (``None`` = ``tenant_rate``, a dataplane provisioned at
            exactly the sustained rate).  The queue-delay bound follows:
            ``queue_delay <= queue_limit / drain_rate``.
        soft_fraction: occupancy fraction of ``queue_limit`` at which the
            SOFT signal engages.
        soft_age: head-of-line age (trace seconds) that also engages SOFT
            (``None`` = half the worst-case queue delay).
        adaptive_sources: when SOFT is signalled, re-pace the tenant's
            subsequent arrivals to the sustained rate (deterministic
            near-source flow control) instead of letting the bucket
            throttle them.
    """

    tenant_rate: float = 20_000.0
    tenant_burst: int = 256
    queue_limit: int = 512
    drain_rate: Optional[float] = None
    soft_fraction: float = 0.5
    soft_age: Optional[float] = None
    adaptive_sources: bool = True

    def __post_init__(self) -> None:
        if self.tenant_rate <= 0:
            raise ValueError("tenant_rate must be > 0")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.drain_rate is not None and self.drain_rate <= 0:
            raise ValueError("drain_rate must be > 0 (or None)")
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")
        if self.soft_age is not None and self.soft_age < 0:
            raise ValueError("soft_age must be >= 0 (or None)")

    @property
    def resolved_drain_rate(self) -> float:
        return self.drain_rate if self.drain_rate is not None \
            else self.tenant_rate

    @property
    def soft_occupancy(self) -> int:
        """Queue occupancy at which the SOFT signal engages (>= 1)."""
        return max(1, int(self.soft_fraction * self.queue_limit))

    @property
    def resolved_soft_age(self) -> float:
        if self.soft_age is not None:
            return self.soft_age
        return 0.5 * self.queue_limit / self.resolved_drain_rate

    @property
    def max_queue_delay(self) -> float:
        """Worst-case admitted queue delay the bounded queue can impose."""
        return self.queue_limit / self.resolved_drain_rate

    def as_dict(self) -> dict:
        """Scorecard-config form (stable keys, resolved defaults)."""
        return {
            "tenant_rate": self.tenant_rate,
            "tenant_burst": self.tenant_burst,
            "queue_limit": self.queue_limit,
            "drain_rate": self.resolved_drain_rate,
            "soft_fraction": self.soft_fraction,
            "soft_age": self.resolved_soft_age,
            "adaptive_sources": self.adaptive_sources,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one offered request."""

    status: str  #: ADMITTED | THROTTLED | SHED
    level: CongestionLevel
    #: Trace time the admission queue hands the request onward (admitted
    #: only); the request is re-stamped to this time before serving.
    release_time: Optional[float] = None
    #: ``release_time - effective arrival`` (admitted only).
    queue_delay: float = 0.0
    #: Trace seconds until the tenant's bucket holds a token again
    #: (throttled only) — the back-off hint sources should honour.
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.status == ADMITTED


class _TenantState:
    """Per-tenant admission state (bucket, bounded queue, pacing clock)."""

    __slots__ = ("bucket", "queue", "last_release", "next_allowed",
                 "signal", "offered", "admitted", "throttled", "shed",
                 "max_depth")

    def __init__(self, config: IngestConfig) -> None:
        self.bucket = TokenBucket(config.tenant_rate, config.tenant_burst)
        #: (enqueue_time, release_time) per queued request.
        self.queue: Deque[Tuple[float, float]] = deque()
        self.last_release = 0.0
        self.next_allowed = 0.0
        self.signal = CongestionLevel.OK
        self.offered = 0
        self.admitted = 0
        self.throttled = 0
        self.shed = 0
        self.max_depth = 0


class AdmissionController:
    """Deterministic per-tenant admission over a time-ordered stream.

    One controller serves one serving stack (a whole single-process run, or
    one shard), with one config for every tenant.  ``metrics`` (typically
    the serving registry's :class:`~repro.obs.metrics.MetricsRegistry`; a
    private one when omitted) receives the ``ingest.*`` counters and the
    ``ingest.queue_delay_seconds`` timing histogram, whose raw samples
    merge exactly across shards.
    """

    def __init__(self, config: IngestConfig = IngestConfig(),
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self._states: Dict[str, _TenantState] = {}
        if metrics is None:
            metrics = MetricsRegistry()
        self._metrics = metrics
        self._offered = metrics.counter("ingest.offered")
        self._admitted = metrics.counter("ingest.admitted")
        self._throttled = metrics.counter("ingest.throttled")
        self._shed = metrics.counter("ingest.shed")
        self._delay = metrics.timing("ingest.queue_delay_seconds")
        self._depth = metrics.gauge("ingest.queue_depth")

    # ------------------------------------------------------------------ #
    # Core decision
    # ------------------------------------------------------------------ #

    def _state(self, tenant_id: str) -> _TenantState:
        state = self._states.get(tenant_id)
        if state is None:
            state = self._states[tenant_id] = _TenantState(self.config)
        return state

    def offer(self, request: Request) -> AdmissionDecision:
        """Decide one request; exactly one of admit/throttle/shed."""
        config = self.config
        state = self._state(request.tenant_id)
        state.offered += 1
        self._offered.inc()
        now = request.time
        if config.adaptive_sources and state.signal >= CongestionLevel.SOFT:
            # Near-source flow control: a SOFT-signalled source falls back
            # to sustained-rate pacing, so its effective arrival may be
            # later than its wire arrival.  Deterministic: a pure function
            # of the arrival sequence.
            now = max(now, state.next_allowed)
        state.next_allowed = max(state.next_allowed, now) \
            + 1.0 / config.tenant_rate

        # Drain the virtual queue to the (effective) arrival, then judge
        # congestion on what is still backed up.
        queue = state.queue
        while queue and queue[0][1] <= now:
            queue.popleft()
        occupancy = len(queue)
        if occupancy >= config.queue_limit:
            state.signal = CongestionLevel.HARD
        elif occupancy >= config.soft_occupancy or (
                queue and now - queue[0][0] >= config.resolved_soft_age):
            state.signal = CongestionLevel.SOFT
        else:
            state.signal = CongestionLevel.OK

        if state.signal is CongestionLevel.HARD:
            # Queue full: shed at admission (no token consumed) rather
            # than tail-drop after queueing.
            state.shed += 1
            self._shed.inc()
            return AdmissionDecision(status=SHED, level=state.signal)

        if not state.bucket.try_consume(now):
            state.throttled += 1
            self._throttled.inc()
            return AdmissionDecision(
                status=THROTTLED, level=state.signal,
                retry_after=state.bucket.seconds_until(),
            )

        release = max(now, state.last_release
                      + 1.0 / config.resolved_drain_rate)
        state.last_release = release
        queue.append((now, release))
        state.max_depth = max(state.max_depth, len(queue))
        state.admitted += 1
        delay = release - now
        self._admitted.inc()
        self._delay.observe(delay)
        if len(queue) > self._depth.value:
            self._depth.set(len(queue))
        return AdmissionDecision(status=ADMITTED, level=state.signal,
                                 release_time=release, queue_delay=delay)

    def admit(self, requests: Iterable[Request]) -> List[Request]:
        """Run a whole time-ordered stream through admission.

        Returns the admitted requests re-stamped to their queue release
        times, re-sorted (stably) so the serving loop sees a time-ordered
        stream again.  Throttled and shed requests are counted, never
        forwarded — the callers that need the per-request verdicts use
        :meth:`offer` directly.
        """
        admitted: List[Request] = []
        for request in sorted(requests, key=lambda r: r.time):
            decision = self.offer(request)
            if decision.admitted:
                admitted.append(replace(request,
                                        time=decision.release_time))
        admitted.sort(key=lambda r: r.time)
        return admitted

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self._states.values())

    @property
    def admitted(self) -> int:
        return sum(s.admitted for s in self._states.values())

    @property
    def throttled(self) -> int:
        return sum(s.throttled for s in self._states.values())

    @property
    def shed(self) -> int:
        return sum(s.shed for s in self._states.values())

    def counters(self) -> Dict[str, int]:
        """The admission tally (deterministic across replays)."""
        return {
            "ingest_offered": self.offered,
            "ingest_admitted": self.admitted,
            "ingest_throttled": self.throttled,
            "ingest_shed": self.shed,
        }

    def tenant_summary(self, trace_seconds: float) -> Dict[str, dict]:
        """Per-tenant admission telemetry, including goodput.

        Goodput is admitted packets over the run's trace duration — a
        trace-clock figure, so it is deterministic like the counters.
        Also publishes ``ingest.goodput_pps.<tenant>`` gauges into the
        bound metrics registry (max-merge across shards is exact because
        tenants are shard-disjoint).
        """
        duration = max(trace_seconds, 1e-12)
        summary: Dict[str, dict] = {}
        for tenant_id in sorted(self._states):
            state = self._states[tenant_id]
            goodput = state.admitted / duration
            self._metrics.gauge(
                f"ingest.goodput_pps.{tenant_id}").set(goodput)
            summary[tenant_id] = {
                "offered": state.offered,
                "admitted": state.admitted,
                "throttled": state.throttled,
                "shed": state.shed,
                "goodput_pps": goodput,
                "max_queue_depth": state.max_depth,
                "signal": state.signal.name,
            }
        return summary

"""Admission control: token buckets, bounded queues, congestion signals.

The :class:`AdmissionController` is the synchronous, deterministic
ingestion frontend (``ClassificationService.serve`` runs it over the whole
stream when the serving config carries an :class:`IngestConfig`).  Every
offered request lands in exactly one of three outcomes:

* **admitted** — a token was available and the tenant's admission queue has
  room.  The request is stamped with its queue *release* time (the bounded
  per-tenant queue drains at ``tenant_rate``, modelling the hand-off into
  the dataplane) and forwarded; ``release - arrival`` is the queue delay
  recorded in ``ingest.queue_delay_seconds``.
* **throttled** — the tenant's token bucket is empty: the offered rate
  exceeds ``tenant_rate`` beyond the ``tenant_burst`` allowance.  Counted,
  never forwarded.
* **shed** — the admission queue is at ``queue_limit`` (the HARD congestion
  level).  Counted, never forwarded: the design goal lifted from
  SFC/L4Span is to signal (SOFT) and throttle *before* queues overflow,
  and never to tail-drop silently.

Congestion is signalled at two levels *before* shedding: **SOFT** engages
when queue occupancy reaches ``max(1, queue_limit // 2)`` or the
head-of-line age reaches half of :attr:`IngestConfig.max_queue_delay`, and
a SOFT-signalled tenant's subsequent arrivals are re-paced to its sustained
rate — the near-source flow control of the SFC design, on the virtual
clock so it stays deterministic.  A paced source still sends in order, so a
tenant's effective arrivals never go back in time when the signal clears;
that keeps every admitted queue delay within
:attr:`IngestConfig.max_queue_delay`.  **HARD** (queue full) sheds.

Everything runs on the trace clock: decisions are a pure function of the
offered (tenant, time) sequence and the config, which is what makes the
over-rate scenarios replay bit-identically — and because all state is
per-tenant, admission over a whole stream decides for each tenant exactly
what admission over that tenant's requests alone would.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, \
    Tuple

from repro.ingest.bucket import TokenBucket
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.batcher import Request

_ARRIVAL = attrgetter("time")


class CongestionLevel(enum.IntEnum):
    """Two-level congestion signal driven by queue occupancy and age."""

    OK = 0
    #: Sources are re-paced to the tenant's sustained rate.
    SOFT = 1
    #: The admission queue is full; new arrivals are shed (counted).
    HARD = 2


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of the ingestion frontend (one config for every tenant).

    Attributes:
        tenant_rate: sustained admitted packets/sec per tenant: the token
            refill rate, the rate the admission queue drains at, and the
            rate a SOFT-signalled source is re-paced to.
        tenant_burst: bucket capacity — packets a tenant may send back to
            back after idling.
        queue_limit: bounded per-tenant admission queue capacity; occupancy
            at the limit is the HARD level (shed at admission), half of it
            engages SOFT.
    """

    tenant_rate: float = 20_000.0
    tenant_burst: int = 256
    queue_limit: int = 512

    def __post_init__(self) -> None:
        if self.tenant_rate <= 0:
            raise ValueError("tenant_rate must be > 0")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")

    @property
    def max_queue_delay(self) -> float:
        """Worst-case admitted queue delay the bounded queue can impose."""
        return self.queue_limit / self.tenant_rate


_OK, _SOFT, _HARD = CongestionLevel.OK, CongestionLevel.SOFT, \
    CongestionLevel.HARD


class _TenantState:
    """Per-tenant admission state (bucket, bounded queue, pacing clock)."""

    __slots__ = ("bucket", "queue", "last_release", "arrival",
                 "next_allowed", "signal", "offered", "admitted", "throttled", "shed",
                 "max_depth")

    def __init__(self, config: IngestConfig) -> None:
        self.bucket = TokenBucket(config.tenant_rate, config.tenant_burst)
        #: (enqueue_time, release_time) per queued request.
        self.queue: Deque[Tuple[float, float]] = deque()
        self.last_release = 0.0
        #: Effective arrival of the tenant's previous request.
        self.arrival = 0.0
        self.next_allowed = 0.0
        self.signal = CongestionLevel.OK
        self.offered = 0
        self.admitted = 0
        self.throttled = 0
        self.shed = 0
        self.max_depth = 0


class AdmissionController:
    """Deterministic per-tenant admission over a time-ordered stream.

    One controller admits one front-end's stream (a whole run), with one
    config for every tenant.  ``metrics`` (the
    front-end's :class:`~repro.obs.metrics.MetricsRegistry`; a private one
    when omitted) receives the ``ingest.*`` counters and the
    ``ingest.queue_delay_seconds`` timing histogram, whose raw samples
    merge exactly into a serving report.
    """

    def __init__(self, config: IngestConfig = IngestConfig(),
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self._states: Dict[str, _TenantState] = {}
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._offered = metrics.counter("ingest.offered")
        self._admitted = metrics.counter("ingest.admitted")
        self._throttled = metrics.counter("ingest.throttled")
        self._shed = metrics.counter("ingest.shed")
        self._delay = metrics.timing("ingest.queue_delay_seconds")
        self._depth = metrics.gauge("ingest.queue_depth")

    def admit(self, requests: Iterable[Request]) -> List[Request]:
        """Run a whole stream, in any order, through admission.

        Requests are decided one at a time in arrival order (a stable sort,
        so equal stamps keep their stream order).  Returns the admitted
        requests re-stamped to their queue release times, re-sorted
        (stably) so the serving loop sees a time-ordered stream again.
        Throttled and shed requests are counted, never forwarded.  The
        metrics are written once for the stream: the counts, the delay
        samples in arrival order, and the peak-depth gauge with one counted
        write per new peak.  State carries over between calls.
        """
        from repro.serve.batcher import Request

        config, states = self.config, self._states
        gap = 1.0 / config.tenant_rate
        queue_limit = config.queue_limit
        # SOFT at half the queue, or at half the worst-case queue delay.
        soft_depth = max(1, queue_limit // 2)
        soft_delay = 0.5 * queue_limit / config.tenant_rate
        admitted: List[Request] = []
        delays: List[float] = []
        peak, raises = self._depth.value, 0
        ordered = sorted(requests, key=_ARRIVAL)
        shed = 0
        for request in ordered:
            state = states.get(request.tenant_id)
            if state is None:
                state = states[request.tenant_id] = _TenantState(config)
            state.offered += 1
            # A paced source sends in order: no request arrives before the
            # tenant's previous one, even once the signal is back to OK.
            now = max(request.time, state.arrival)
            if state.signal >= _SOFT:
                # Near-source flow control: a SOFT-signalled source falls
                # back to sustained-rate pacing, so its effective arrival
                # may be later than its wire arrival.
                now = max(now, state.next_allowed)
            state.arrival = now
            state.next_allowed = max(state.next_allowed, now) + gap

            # Drain the virtual queue to the (effective) arrival, then
            # judge congestion on what is still backed up.
            queue = state.queue
            while queue and queue[0][1] <= now:
                queue.popleft()
            depth = len(queue)
            if depth >= queue_limit:
                # Queue full: shed at admission (no token consumed) rather
                # than tail-drop after queueing.
                state.signal = _HARD
                state.shed += 1
                shed += 1
                continue
            if depth >= soft_depth or (
                    queue and now - queue[0][0] >= soft_delay):
                state.signal = _SOFT
            else:
                state.signal = _OK

            if not state.bucket.try_consume(now):
                state.throttled += 1
                continue

            release = max(now, state.last_release + gap)
            state.last_release = release
            queue.append((now, release))
            depth += 1
            if depth > state.max_depth:
                state.max_depth = depth
            state.admitted += 1
            delays.append(release - now)
            admitted.append(Request(request.tenant_id, request.packet,
                                    release, request.flow_id, request.seq))
            if depth > peak:
                peak = depth
                raises += 1
        self._offered.inc(len(ordered))
        self._admitted.inc(len(admitted))
        self._throttled.inc(len(ordered) - len(admitted) - shed)
        self._shed.inc(shed)
        self._delay.observe_many(delays)
        if raises:
            # One gauge write per stream, counted as the writes a
            # request-by-request run makes (one per new peak).
            self._depth.set(peak)
            self._depth.updates += raises - 1
        admitted.sort(key=_ARRIVAL)
        return admitted

    def tenant_summary(self, trace_seconds: float) -> Dict[str, dict]:
        """Per-tenant admission telemetry, including goodput: the tenant's
        tally (``offered == admitted + throttled + shed``), its deepest
        queue and its last congestion signal.

        Goodput is admitted packets over the run's trace duration — a
        trace-clock figure, so it is deterministic like the counters.
        Also publishes ``ingest.goodput_pps.<tenant>`` gauges into the
        bound metrics registry.
        """
        duration = max(trace_seconds, 1e-12)
        summary: Dict[str, dict] = {}
        for tenant_id in sorted(self._states):
            state = self._states[tenant_id]
            goodput = state.admitted / duration
            self.metrics.gauge(
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

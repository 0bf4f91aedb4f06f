"""Per-request admission: the reference ``AdmissionController.admit`` is
held to.

The admission rules written out once more, one offered request at a time,
with state of their own — nothing here is shared with
:mod:`repro.ingest.admission` but the :class:`~repro.ingest.TokenBucket`
and the config.  The three knobs fix the rest: the queue drains at
``tenant_rate``, SOFT engages at half the queue (at least one) or at half
the worst-case queue delay, and a SOFT-signalled source is re-paced to
``tenant_rate``; a tenant's effective arrivals never go back in time.
A request-by-request run leaves, besides each verdict, the tallies and
metrics the controller publishes: the counters, the queue-delay samples in
arrival order, and the peak-depth gauge with one write per new peak.
"""

from collections import deque

from repro.ingest import CongestionLevel, TokenBucket

#: Verdict statuses: every offered request gets exactly one.
ADMITTED = "admitted"
THROTTLED = "throttled"
SHED = "shed"


class _Tenant:
    def __init__(self, config):
        self.bucket = TokenBucket(config.tenant_rate, config.tenant_burst)
        self.queue = deque()
        self.last_release = 0.0
        self.arrival = 0.0
        self.next_allowed = 0.0
        self.signal = CongestionLevel.OK
        self.tally = {ADMITTED: 0, THROTTLED: 0, SHED: 0}
        self.max_depth = 0


class ReferenceAdmission:
    """Offer requests in arrival order; read the verdicts and the tallies."""

    def __init__(self, config):
        self.config = config
        self.tenants = {}
        self.delays = []
        self.peak = 0.0
        self.peak_writes = 0

    def offer(self, tenant_id, time):
        """``(status, level, release_time, queue_delay)``."""
        config = self.config
        tenant = self.tenants.setdefault(tenant_id, _Tenant(config))
        now = max(time, tenant.arrival)
        if tenant.signal >= CongestionLevel.SOFT:
            now = max(now, tenant.next_allowed)
        tenant.arrival = now
        tenant.next_allowed = max(tenant.next_allowed, now) \
            + 1.0 / config.tenant_rate
        queue = tenant.queue
        while queue and queue[0][1] <= now:
            queue.popleft()
        if len(queue) >= config.queue_limit:
            tenant.signal = CongestionLevel.HARD
        elif len(queue) >= max(1, config.queue_limit // 2) or (
                queue and now - queue[0][0] >= config.max_queue_delay / 2):
            tenant.signal = CongestionLevel.SOFT
        else:
            tenant.signal = CongestionLevel.OK
        if tenant.signal is CongestionLevel.HARD:
            tenant.tally[SHED] += 1
            return SHED, tenant.signal, None, 0.0
        if not tenant.bucket.try_consume(now):
            tenant.tally[THROTTLED] += 1
            return THROTTLED, tenant.signal, None, 0.0
        release = max(now, tenant.last_release + 1.0 / config.tenant_rate)
        tenant.last_release = release
        queue.append((now, release))
        tenant.max_depth = max(tenant.max_depth, len(queue))
        tenant.tally[ADMITTED] += 1
        self.delays.append(release - now)
        if len(queue) > self.peak:
            self.peak = float(len(queue))
            self.peak_writes += 1
        return ADMITTED, tenant.signal, release, release - now

    def counters(self):
        def total(status):
            return sum(t.tally[status] for t in self.tenants.values())
        return {
            "ingest_offered": sum(sum(t.tally.values())
                                  for t in self.tenants.values()),
            "ingest_admitted": total(ADMITTED),
            "ingest_throttled": total(THROTTLED),
            "ingest_shed": total(SHED),
        }

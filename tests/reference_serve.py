"""Per-request reference serving loop: the oracle the block planner is held to.

One event at a time through the real :class:`~repro.serve.batcher.MicroBatcher`
— the loop ``ServingSession`` ran before it settled arrivals a block at a
time.  :class:`ReferenceLoop` is the event semantics alone (who is released,
when, in what order, with what flush stamp); :class:`ReferenceSession` puts
an engine call behind it so a whole ``serve()`` — batches, epochs, answers,
counters — can be compared with the planned one.  Nothing here is shared
with :func:`repro.serve.batcher.plan_block`.
"""

import time

import numpy as np

from repro.engine.layout import packets_to_array
from repro.ingest.admission import AdmissionController
from repro.serve.batcher import MicroBatcher
from repro.serve.service import ServedBatch, ServingSession


class ReferenceLoop:
    """Arrivals, updates and polls fed one by one to a ``MicroBatcher``.

    ``execute(tenant_id, batch, flush_time)`` receives every non-empty
    release in order; ``apply(update)`` every update, after its barrier.
    """

    def __init__(self, policy, updates=(), execute=None, apply=None):
        self.policy = policy
        self.batcher = MicroBatcher(policy)
        self.execute = execute or (lambda tenant_id, batch, flush_time: None)
        self.apply = apply or (lambda update: None)
        self._pending_updates = sorted(updates, key=lambda u: u.time)
        self._update_index = 0
        self.last_time = 0.0

    def offer(self, request):
        self.last_time = max(self.last_time, request.time)
        # Every update scheduled before this arrival applies first.
        while self._update_index < len(self._pending_updates) and \
                self._pending_updates[self._update_index].time <= request.time:
            update = self._pending_updates[self._update_index]
            self._update_index += 1
            self.deliver_update(update)
        for tenant_id, batch in self.batcher.offer(request):
            self._release(tenant_id, batch, request.time)

    def deliver_update(self, update):
        self.last_time = max(self.last_time, update.time)
        for tenant_id, batch in self.batcher.poll(update.time):
            self._release(tenant_id, batch, update.time)
        self._release(update.tenant_id, self.batcher.flush(update.tenant_id),
                      update.time)
        self.apply(update)

    def poll(self, now):
        for tenant_id, batch in self.batcher.poll(now):
            self._release(tenant_id, batch, now)

    def queue_depth(self, tenant_id):
        return self.batcher.pending(tenant_id)

    def finish(self):
        # Tail updates flush their own tenant only; then everything drains.
        for update in self._pending_updates[self._update_index:]:
            self._update_index += 1
            self.last_time = max(self.last_time, update.time)
            self._release(update.tenant_id,
                          self.batcher.flush(update.tenant_id), update.time)
            self.apply(update)
        for tenant_id, batch in self.batcher.flush_all():
            self._release(tenant_id, batch, self.last_time)

    def _release(self, tenant_id, batch, flush_time):
        if not batch:
            return
        # A timer-driven batcher would have fired at oldest + max_delay:
        # queueing delay is charged against that moment, never before the
        # batch's last arrival.
        flush_time = max(batch[-1].time,
                         min(flush_time,
                             batch[0].time + self.policy.max_delay))
        self.execute(tenant_id, batch, flush_time)


class ReferenceSession(ServingSession):
    """A ``ServingSession`` whose every event goes through ``ReferenceLoop``.

    Only intake and batch execution are replaced; the report is built by
    the code under test from the same tallies.
    """

    def __init__(self, service, updates=(), admission=None):
        super().__init__(service, admission=admission)
        self.loop = ReferenceLoop(service.policy, updates,
                                  self._serve_batch, self._apply)

    @property
    def last_time(self):
        return self.loop.last_time

    def offer(self, request):
        self.loop.offer(request)

    def deliver_update(self, update):
        self.loop.deliver_update(update)

    def poll(self, now):
        self.loop.poll(now)

    def queue_depth(self, tenant_id):
        return self.loop.queue_depth(tenant_id)

    def settle(self):
        pass

    def finish(self):
        self.loop.finish()
        self._last_time = self.loop.last_time
        return self._report()

    def _serve_batch(self, tenant_id, batch, flush_time):
        if self.service.retrain_controller is not None:
            self.service.retrain_controller.poll_tenant(tenant_id)
        slot = self.registry.slot(tenant_id)
        engine = slot.engine()
        epoch = slot.epoch
        values = packets_to_array([r.packet for r in batch])
        start = time.perf_counter()
        indices = engine.lookup_batch(values)
        wall = time.perf_counter() - start
        self._engine_seconds += wall
        self._num_batches += 1
        self._num_served += len(batch)
        self._flush_timing.observe(wall)
        self._batch_counter.inc()
        self._request_counter.inc(len(batch))
        self.registry.metrics.counter(
            f"serve.tenant_requests.{tenant_id}").inc(len(batch))
        latencies = []
        for request in batch:
            self._queue_timing.observe(flush_time - request.time)
            latencies.append((flush_time - request.time) + wall)
        self._latencies.append(np.asarray(latencies))
        if self.service.record_batches:
            self._recorded.append(ServedBatch(
                tenant_id=tenant_id, epoch=epoch, flush_time=flush_time,
                wall_seconds=wall, requests=batch,
                priorities=[engine.rules[i].priority if i >= 0 else None
                            for i in indices]))


def serve(service, requests, updates=()):
    """``ClassificationService.serve`` over the per-request loop."""
    requests = sorted(requests, key=lambda r: r.time)
    admission = None
    if service.ingest is not None:
        admission = AdmissionController(service.ingest,
                                        metrics=service.registry.metrics)
        requests = admission.admit(requests)
    session = ReferenceSession(service, updates, admission)
    for request in requests:
        session.offer(request)
    return session.finish()

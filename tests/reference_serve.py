"""Per-request reference serving loop: the oracle the planner is held to.

One event at a time through the real :class:`~repro.serve.batcher.MicroBatcher`
— the loop ``ServingSession`` ran before it planned a whole ``serve()`` call
at once.  :class:`ReferenceSession` replaces only the session's execution:
arrivals and updates go through the batcher one by one, every release is
one engine call, and the report is built by the code under test from the
same tallies.  :func:`serve` is ``ClassificationService.serve`` with that
session in place of the planned one, so admission and its fold are the
code under test's too.  Nothing here is shared with
:func:`repro.serve.batcher.plan_block`.
"""

import time
from unittest import mock

import numpy as np

from repro.engine.layout import packets_to_array
from repro.serve import service as service_module
from repro.serve.batcher import MicroBatcher
from repro.serve.service import ClassificationService, ServedBatch, \
    ServingSession


class ReferenceSession(ServingSession):
    """A ``ServingSession`` whose every event goes through a ``MicroBatcher``.

    Each update is delivered ahead of the first arrival at or past its
    stamp (updates past the last arrival after it): a deadline poll at its
    stamp, a flush of its tenant, then the update.  The end of the trace
    flushes every queue at the largest stamp seen.
    """

    def finish(self, updates=()):
        policy = self.service.policy
        batcher = MicroBatcher(policy)

        def release(tenant_id, batch, flush_time):
            if not batch:
                return
            # A timer-driven batcher would have fired at oldest + max_delay:
            # queueing delay is charged against that moment, never before
            # the batch's last arrival.
            self._serve_batch(tenant_id, batch, max(
                batch[-1].time,
                min(flush_time, batch[0].time + policy.max_delay)))

        def deliver(update):
            for tenant_id, batch in batcher.poll(update.time):
                release(tenant_id, batch, update.time)
            release(update.tenant_id, batcher.flush(update.tenant_id),
                    update.time)
            self._apply(update)

        pending = sorted(updates, key=lambda u: u.time)
        for request in self._arrivals:
            while pending and pending[0].time <= request.time:
                deliver(pending.pop(0))
            for tenant_id, batch in batcher.offer(request):
                release(tenant_id, batch, request.time)
        for update in pending:
            deliver(update)
        self._last_time = max([0.0] + [r.time for r in self._arrivals]
                              + [u.time for u in updates])
        for tenant_id, batch in batcher.flush_all():
            release(tenant_id, batch, self._last_time)
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
    with mock.patch.object(service_module, "ServingSession",
                           ReferenceSession):
        return ClassificationService.serve(service, requests, updates)

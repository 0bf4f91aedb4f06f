"""Per-tenant micro-batching of classification requests.

The compiled engine is fastest on vectorised batches, but a serving path
receives *individual* packets.  The :class:`MicroBatcher` bridges the two:
requests accumulate in per-tenant queues and are released as batches when a
queue reaches ``max_batch`` packets or when its oldest request has waited
longer than ``max_delay`` of trace time.  Time is the *workload's* clock
(request arrival timestamps), so batching behaviour is deterministic for a
given trace — the same requests always form the same batches.

The rule lives here twice, and the two must agree bit for bit.
:func:`plan_block` applies it to a whole block of arrival stamps at once, in
O(batches) steps, and is what :class:`~repro.serve.service.ServingSession`
runs.  :class:`MicroBatcher` applies it one event at a time: it is the
per-event reference that the oracle ``tests/reference_serve.py`` drives,
kept in ``src/`` because ``perfbench/`` wraps its methods.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.rules.packet import Packet


@dataclass(frozen=True)
class Request:
    """One packet awaiting classification for one tenant.

    Attributes:
        tenant_id: the tenant whose classifier must be consulted.
        packet: the 5-tuple header to classify.
        time: arrival timestamp in trace seconds (drives batching deadlines
            and queueing-latency accounting).
        flow_id: the workload flow this packet belongs to (per-tenant
            namespace; -1 when the source carries no flow structure).
        seq: position of the request in its workload's time-ordered stream
            (-1 for ad-hoc requests).  Stable across batching and hot
            swaps, which is what lets trace recording map served decisions
            back to trace rows.
    """

    tenant_id: str
    packet: Packet
    time: float = 0.0
    flow_id: int = -1
    seq: int = -1


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs controlling how requests coalesce into engine batches.

    Attributes:
        max_batch: release a tenant's queue once it holds this many requests.
        max_delay: release a tenant's queue once its oldest request has
            waited this many trace seconds (the latency/throughput knob).
    """

    max_batch: int = 64
    max_delay: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")


class MicroBatcher:
    """Coalesces per-packet requests into per-tenant batches.

    Not thread-safe by design: the batcher belongs to the single serving
    thread (see :class:`~repro.serve.service.ClassificationService`), and
    all timing is *trace* time carried on the requests themselves — never
    the wall clock — so a given request stream always forms the same
    batches, on any machine, at any execution speed.  ``offer``/``poll``
    release batches on the live path; ``flush``/``flush_all`` are the
    quiesce operations (pre-update barrier, end of trace) that release
    queues regardless of size or deadline.
    """

    def __init__(self, policy: BatchPolicy = BatchPolicy()) -> None:
        self.policy = policy
        # Insertion-ordered so deadline flushes release tenants in the order
        # their oldest requests arrived (OrderedDict keyed by tenant).
        self._queues: "OrderedDict[str, List[Request]]" = OrderedDict()

    def __len__(self) -> int:
        """Total number of queued (not yet released) requests."""
        return sum(len(q) for q in self._queues.values())

    @property
    def pending_tenants(self) -> List[str]:
        return [t for t, q in self._queues.items() if q]

    def pending(self, tenant_id: str) -> int:
        """Requests of one tenant still queued (0 = no in-flight batch)."""
        return len(self._queues.get(tenant_id, []))

    def offer(self, request: Request) -> List[Tuple[str, List[Request]]]:
        """Enqueue a request; returns any batches released by its arrival.

        The arrival first expires every queue whose deadline has passed at
        ``request.time`` (trace time only moves forward), then the request
        joins its tenant's queue, which is released immediately if full.
        """
        released = self.poll(request.time)
        queue = self._queues.setdefault(request.tenant_id, [])
        queue.append(request)
        if len(queue) >= self.policy.max_batch:
            released.append((request.tenant_id, queue))
            self._queues[request.tenant_id] = []
        return released

    def poll(self, now: float) -> List[Tuple[str, List[Request]]]:
        """Release every queue whose oldest request exceeded ``max_delay``."""
        released: List[Tuple[str, List[Request]]] = []
        for tenant_id, queue in list(self._queues.items()):
            if queue and now - queue[0].time >= self.policy.max_delay:
                released.append((tenant_id, queue))
                self._queues[tenant_id] = []
        return released

    def flush(self, tenant_id: str) -> List[Request]:
        """Release one tenant's queue regardless of size or deadline."""
        queue = self._queues.get(tenant_id, [])
        self._queues[tenant_id] = []
        return queue

    def flush_all(self) -> List[Tuple[str, List[Request]]]:
        """Release every non-empty queue (end of trace)."""
        released = [(t, q) for t, q in self._queues.items() if q]
        self._queues = OrderedDict()
        return released


# --------------------------------------------------------------------------- #
# The block planner: the same release rule, a block of arrivals at a time
# --------------------------------------------------------------------------- #

#: Step kinds, in the order the per-request loop runs them inside one event:
#: deadline releases of the event's poll (in tenant order), then the event's
#: own size or flush release, then — for an update — the update itself.
POLL_RELEASE, OWN_RELEASE, BARRIER = 0, 1, 2


class Barrier(NamedTuple):
    """A non-arrival event of a block: an update's flush, or a bare poll."""

    time: float
    #: Tenant whose queue is flushed (-1: none, the event only polls).
    code: int
    #: Index of the fresh row the event comes before (the number of fresh
    #: rows: after them all).
    before: int


class Step(NamedTuple):
    """One action of a plan; a plan's steps sort into execution order."""

    event: int
    kind: int
    #: Tenant code of a release; index into ``barriers`` of a ``BARRIER``.
    code: int
    #: A release serves rows ``[start, stop)`` of the tenant-major table.
    start: int
    stop: int
    flush_time: float


class BlockPlan(NamedTuple):
    """:func:`plan_block`'s answer for one block."""

    #: Stable tenant-major permutation of the planned rows.
    order: np.ndarray
    steps: List[Step]
    #: Rows of the permuted table no event released (still queued).
    keep: np.ndarray


def _first_expired(clock: List[float], lo: int, hi: int, oldest: float,
                   max_delay: float) -> int:
    """First ``i`` in ``[lo, hi)`` with ``clock[i] - oldest >= max_delay``.

    That predicate, in that form, is :meth:`MicroBatcher.poll`'s; it is
    monotone along a non-decreasing clock, so bisecting on the rounded sum
    ``oldest + max_delay`` lands within a stamp or two of the answer and
    the exact predicate settles it.  Returns ``hi`` when nothing expires.
    """
    i = bisect_left(clock, oldest + max_delay, lo, hi)
    while i > lo and clock[i - 1] - oldest >= max_delay:
        i = bisect_left(clock, clock[i - 1], lo, i)
    while i < hi and not clock[i] - oldest >= max_delay:
        i = bisect_right(clock, clock[i], i, hi)
    return i


def plan_block(times: np.ndarray, codes: np.ndarray, arrived: int,
               barriers: Sequence[Barrier], policy: BatchPolicy,
               end_time: Optional[float] = None) -> BlockPlan:
    """What :class:`MicroBatcher` would release over a block, as spans.

    ``times`` / ``codes`` are arrival stamp and tenant code per row; the
    first ``arrived`` rows are already queued (an earlier block's ``keep``,
    each tenant's in arrival order) and the fresh rows after them arrive in
    the given order, non-decreasing in time.  A tenant's code is its
    position in the batcher's queue order: its first arrival or flush.
    ``barriers`` are sorted by ``before``.  With ``end_time`` set the plan
    ends the trace: whatever is still queued is released at that stamp
    (``flush_all``).

    The plan reproduces the per-request loop — ``offer`` polls every queue
    and then enqueues, an update polls and then flushes its own tenant —
    bit for bit, in O(batches) steps: each queue is walked release by
    release, and a release is the earliest of its size event, its tenant's
    next flush and the first event that finds its deadline expired.
    """
    total, fresh = len(times), len(times) - arrived
    never = fresh + len(barriers)  # the end-of-trace event, past all others
    barrier_event = [b.before + j for j, b in enumerate(barriers)]
    event = np.full(total, -1, dtype=np.int64)
    event[arrived:] = np.arange(fresh)
    if barriers:
        event[arrived:] += np.searchsorted(
            np.asarray([b.before for b in barriers]), np.arange(fresh),
            side="right")
    clock = np.empty(never)
    clock[event[arrived:]] = times[arrived:]
    clock[barrier_event] = [b.time for b in barriers]
    if np.any(np.diff(clock) < 0):
        raise ValueError("arrivals and updates must be in time order")
    clock = clock.tolist()
    flushes: Dict[int, List[int]] = {}
    for at, barrier in zip(barrier_event, barriers):
        if barrier.code >= 0:
            flushes.setdefault(barrier.code, []).append(at)

    order = np.argsort(codes, kind="stable")
    tenants = max(int(codes.max()) + 1 if total else 0,
                  max(flushes, default=-1) + 1)
    bounds = np.searchsorted(codes[order], np.arange(tenants + 1)).tolist()
    stamp, event = times[order].tolist(), event[order].tolist()
    max_batch, max_delay = policy.max_batch, policy.max_delay
    steps = [Step(at, BARRIER, j, 0, 0, 0.0)
             for j, at in enumerate(barrier_event)]
    keep = []
    for code in range(tenants):
        start, end = bounds[code], bounds[code + 1]
        own, f = flushes.get(code, ()), 0
        while start < end:
            oldest, queued_at = stamp[start], event[start]
            full = event[start + max_batch - 1] \
                if start + max_batch <= end else never
            while f < len(own) and own[f] < queued_at:
                f += 1
            flushed = own[f] if f < len(own) else never
            limit = min(never, full + 1, flushed + 1)
            expired = _first_expired(clock, queued_at + 1, limit, oldest,
                                     max_delay)
            if expired < limit:
                # The poll comes first in its event: rows that arrived
                # before it go, the arriving row starts the next queue.
                at, kind = expired, POLL_RELEASE
                stop = bisect_left(event, at, start, end)
            elif full < flushed:
                at, kind, stop = full, OWN_RELEASE, start + max_batch
            elif flushed < never:
                at, kind = flushed, OWN_RELEASE
                stop = bisect_left(event, at, start, end)
            else:
                break
            # A timer would have fired at the deadline: queueing delay is
            # charged against it, never before the batch's last arrival.
            steps.append(Step(at, kind, code, start, stop, max(
                stamp[stop - 1], min(clock[at], oldest + max_delay))))
            start = stop
        if start == end:
            continue
        if end_time is None:
            keep.append(np.arange(start, end))
        else:
            steps.append(Step(never, POLL_RELEASE, code, start, end, max(
                stamp[end - 1], min(end_time, stamp[start] + max_delay))))
    steps.sort()
    return BlockPlan(order, steps,
                     np.concatenate(keep) if keep
                     else np.empty(0, dtype=np.int64))

"""The block planner against the per-request loop it replaced.

``ServingSession`` buffers arrivals and settles them a block at a time
through :func:`repro.serve.batcher.plan_block`; ``tests/reference_serve.py``
feeds the same events one by one to the real ``MicroBatcher``.  Everything
here is a differential between the two: random event streams on a stub
registry (who is served with whom, with what flush stamp, in what order,
around which updates), then whole ``serve()`` runs on real engines (epochs,
answers, counters).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_serve
from repro.ingest import IngestConfig
from repro.obs.metrics import MetricsRegistry
from repro.rules import Packet
from repro.serve import (
    BatchPolicy,
    ClassificationService,
    Request,
    RuleUpdate,
    ServingSession,
    TenantRegistry,
)
from repro.serve.batcher import (
    BARRIER,
    OWN_RELEASE,
    POLL_RELEASE,
    Barrier,
    Step,
    plan_block,
)
from repro.workloads import (
    ChurnConfig,
    FlashCrowdConfig,
    FlowTraceConfig,
    build_flash_crowd_workload,
    make_tenant_specs,
)

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# A registry with nothing behind it: the event semantics alone
# --------------------------------------------------------------------------- #


class _StubEngine:
    rules = ()

    def __init__(self, log, tenant_id):
        self.log, self.tenant_id = log, tenant_id

    def lookup_batch(self, values):
        # The first header field carries the request's seq, so the log
        # names exactly the rows the session handed to the engine.
        self.log.append(("batch", self.tenant_id, values[:, 0].tolist()))
        return np.full(len(values), -1, dtype=np.int64)


class _StubSlot:
    epoch = 0

    def __init__(self, engine):
        self._engine = engine

    def engine(self):
        return self._engine


class _StubRegistry:
    """Logs batches and updates in the order the session issues them."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.log = []

    def slot(self, tenant_id):
        return _StubSlot(_StubEngine(self.log, tenant_id))

    def apply_update(self, tenant_id, adds=(), removes=()):
        self.log.append(("update", tenant_id))

    def drain(self):
        pass

    def telemetry(self):
        return {}

    def swap_stats(self):
        return None


def _request(tenant_id, stamp, seq):
    return Request(tenant_id, Packet(seq, 0, 0, 0, 0), time=stamp, seq=seq)


def _drive(session_type, policy, requests, updates, probes, tenants):
    """Offer ``requests``; before offering row ``i`` run ``probes[i]``,
    then deliver every scheduled update stamped at or before row ``i`` (the
    ones past the last row after the last probes).

    Returns everything observable: the registry's batch/update log, the
    served batches, what the probes read, and the metrics summary.
    """
    registry = _StubRegistry()
    service = ClassificationService(registry, policy, record_batches=True,
                                    record_latencies=True)
    session = session_type(service)
    updates = sorted(updates, key=lambda u: u.time)
    seen = []
    for i in range(len(requests) + 1):
        for op, argument in probes.get(i, ()):
            if op == "settle":
                session.settle()
            elif op == "poll":
                session.poll(argument)
            elif op == "update":
                session.deliver_update(argument)
            seen.append((i, session.last_time,
                         [session.queue_depth(t) for t in tenants]))
        while updates and (i == len(requests)
                           or updates[0].time <= requests[i].time):
            session.deliver_update(updates.pop(0))
        if i < len(requests):
            session.offer(requests[i])
    report = session.finish()
    batches = [(b.tenant_id, b.flush_time, [r.seq for r in b.requests])
               for b in report.batches]
    waits = report.metrics.timings["serve.queue_wait_seconds"].samples
    return (registry.log, batches, seen, report.deterministic_counters(),
            report.trace_seconds, waits,
            report.metrics.summary()["counters"])


@st.composite
def event_streams(draw):
    """(policy, requests, scheduled updates, probes, tenants).

    Stamps are built from the cases floating point makes interesting: ties,
    running sums of 0.1, and stamps sitting exactly on some earlier
    arrival's deadline or one ulp either side of it.
    """
    max_delay = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.25, 0.3, 1.0]))
    policy = BatchPolicy(max_batch=draw(st.sampled_from([1, 2, 3, 5, 64])),
                         max_delay=max_delay)
    tenants = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    stamps, now = [], draw(st.sampled_from([0.0, 0.1, 7.0]))
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(
            ["tie", "tenth", "gap", "deadline", "below", "above"]))
        anchor = draw(st.sampled_from(stamps)) if stamps else now
        stamp = {
            "tie": now,
            "tenth": now + 0.1,
            "gap": now + draw(st.floats(0.0, 0.5)) * (max_delay or 0.2),
            "deadline": anchor + max_delay,
            "below": float(np.nextafter(anchor + max_delay, -np.inf)),
            "above": float(np.nextafter(anchor + max_delay, np.inf)),
        }[kind]
        now = max(now, stamp)
        stamps.append(now)
    requests = [_request(draw(st.sampled_from(tenants)), stamp, seq)
                for seq, stamp in enumerate(stamps)]

    # Scheduled updates: before the first arrival, on an arrival's stamp,
    # between two, past the last (tail), and back to back; "ghost" never
    # sends a packet, so only a flush gives it a queue position.
    updates, last = [], 0.0
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(
            ["before", "at", "between", "after", "repeat"]))
        i = draw(st.integers(0, len(stamps) - 1)) if stamps else 0
        last = {
            "before": (stamps[0] if stamps else 0.0) - 1.0,
            "at": stamps[i] if stamps else 0.0,
            "between": (stamps[i] + stamps[min(i + 1, len(stamps) - 1)]) / 2
            if stamps else 0.5,
            "after": (stamps[-1] if stamps else 0.0) + 1.0,
            "repeat": last,
        }[kind]
        updates.append(RuleUpdate(
            draw(st.sampled_from(tenants + ["ghost"])), last))

    # Probes cut the stream into blocks: any cut points, or every row.
    if draw(st.booleans()):
        cuts = list(range(len(stamps) + 1))
    else:
        cuts = draw(st.lists(st.integers(0, len(stamps)), max_size=6))
    probes = {}
    for i in cuts:
        op = draw(st.sampled_from(["settle", "depth", "poll", "update"]))
        # Explicit events sit on the trace clock between their neighbours.
        stamp = draw(st.sampled_from(
            [s for s in stamps[max(i - 1, 0):i + 1]] or [0.0]))
        argument = {"poll": stamp, "update": RuleUpdate(
            draw(st.sampled_from(tenants + ["ghost"])), stamp)}.get(op)
        probes.setdefault(i, []).append((op, argument))
    return policy, requests, updates, probes, tenants + ["ghost"]


class TestPlannerEqualsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(event_streams())
    @example((BatchPolicy(2, 0.0), [], [RuleUpdate("t0", 0.0)], {}, ["t0"]))
    def test_random_streams(self, stream):
        policy, requests, updates, probes, tenants = stream
        # Scheduled and explicitly delivered updates do not mix in any
        # front-end: each delivers one time-ordered schedule.
        if any(op == "update" for ops in probes.values() for op, _ in ops):
            updates = []
        planned = _drive(ServingSession, policy, requests, updates, probes,
                         tenants)
        looped = _drive(reference_serve.ReferenceSession, policy, requests,
                        updates, probes, tenants)
        assert planned == looped

    def test_deadline_is_the_subtraction_not_the_sum(self):
        """``now - oldest >= max_delay`` and ``now >= oldest + max_delay``
        disagree by an ulp in both directions; the loop uses the first."""
        assert 0.7 >= 0.4 + 0.3 and not 0.7 - 0.4 >= 0.3
        plan = plan_block(np.array([0.4, 0.7]), np.array([0, 1]), 0, [],
                          BatchPolicy(64, 0.3))
        assert plan.steps == [] and plan.keep.tolist() == [0, 1]
        assert 1.7 - 0.6 >= 1.1 and not 1.7 >= 0.6 + 1.1
        plan = plan_block(np.array([0.6, 1.7]), np.array([0, 1]), 0, [],
                          BatchPolicy(64, 1.1))
        assert plan.steps == [Step(1, POLL_RELEASE, 0, 0, 1, 1.7)]
        assert plan.keep.tolist() == [1]

    def test_steps_sort_into_event_order(self):
        """Poll releases (in queue order), then the event's own release,
        then the update; unreleased rows are kept for the next block."""
        times = np.array([0.0, 0.0, 0.0, 0.5, 2.0])
        codes = np.array([1, 0, 1, 2, 2])
        plan = plan_block(times, codes, 0,
                          [Barrier(2.0, 2, 4)], BatchPolicy(2, 1.0))
        assert plan.order.tolist() == [1, 0, 2, 3, 4]
        assert [(s.event, s.kind, s.code, s.start, s.stop, s.flush_time)
                for s in plan.steps] == [
            (2, OWN_RELEASE, 1, 1, 3, 0.0),    # tenant 1 full at its 2nd row
            (4, POLL_RELEASE, 0, 0, 1, 1.0),   # the update's poll, tenant 0
            (4, POLL_RELEASE, 2, 3, 4, 1.5),   # ...then tenant 2, expired
            (4, BARRIER, 0, 0, 0, 0.0),        # the update itself
        ]
        # Row 4 arrives after the barrier and nothing releases it.
        assert plan.keep.tolist() == [4]
        plan = plan_block(times, codes, 0,
                          [Barrier(2.0, 2, 4)], BatchPolicy(2, 5.0))
        assert [s[:5] for s in plan.steps] == [
            (2, OWN_RELEASE, 1, 1, 3), (4, OWN_RELEASE, 2, 3, 4),
            (4, BARRIER, 0, 0, 0)]
        assert plan.keep.tolist() == [0, 4]

    def test_out_of_order_arrivals_are_refused(self):
        with pytest.raises(ValueError, match="time order"):
            plan_block(np.array([1.0, 0.5]), np.array([0, 0]), 0, [],
                       BatchPolicy())


# --------------------------------------------------------------------------- #
# Whole serve() runs on real engines
# --------------------------------------------------------------------------- #


def _signature(report):
    return [(b.tenant_id, b.epoch, b.flush_time,
             [r.seq for r in b.requests], b.priorities)
            for b in report.batches]


def _churned_flash_crowd(seed):
    """The ``serve_churn`` shape: ingest + 20 updates + a flash crowd."""
    specs = make_tenant_specs(4, num_rules=60, seed=1000, algorithm="HiCuts")
    return specs, build_flash_crowd_workload(
        specs, FlowTraceConfig(num_packets=3000, num_flows=200, seed=seed),
        FlashCrowdConfig(rate_factor=4.0),
        churn=ChurnConfig(num_events=20, adds_per_event=5,
                          removes_per_event=3, window=(0.05, 0.95)))


def _serve_in_slices(serve, specs, workload, slices=3):
    """The trace through ``slices`` consecutive ``serve`` calls on one
    registry (caches, epochs and telemetry carry over), like perfbench."""
    registry = TenantRegistry(default_flow_cache_size=256,
                              background_swaps=False)
    for spec in specs:
        registry.register(spec.tenant_id, workload.rulesets[spec.tenant_id],
                          algorithm=spec.algorithm, binth=spec.binth)
    service = ClassificationService(
        registry, BatchPolicy(max_batch=64, max_delay=1e-3),
        record_batches=True, ingest=IngestConfig(tenant_rate=400_000.0))
    requests = sorted(workload.requests, key=lambda r: r.time)
    updates = sorted(workload.updates, key=lambda u: u.time)
    cuts = [len(requests) * i // slices for i in range(slices + 1)]
    reports = []
    for lo, hi in zip(cuts, cuts[1:]):
        until = requests[hi].time if hi < len(requests) else float("inf")
        due = [u for u in updates if u.time < until]
        updates = updates[len(due):]
        reports.append(serve(service, requests[lo:hi], due))
    return reports


@pytest.mark.parametrize("seed", [3, 11])
def test_serve_equals_the_loop_under_churn_and_a_flash_crowd(seed):
    specs, workload = _churned_flash_crowd(seed)
    planned = _serve_in_slices(ClassificationService.serve, specs, workload)
    specs, workload = _churned_flash_crowd(seed)  # updates patch the trees
    looped = _serve_in_slices(reference_serve.serve, specs, workload)
    assert sum(r.num_updates for r in planned) == 20
    assert sum(r.ingest_admitted for r in planned) == len(workload.requests)
    for new, old in zip(planned, looped):
        assert _signature(new) == _signature(old)
        assert new.deterministic_counters() == old.deterministic_counters()
        assert new.metrics.summary()["counters"] == \
            old.metrics.summary()["counters"]
        assert new.metrics.timings["serve.queue_wait_seconds"].samples == \
            old.metrics.timings["serve.queue_wait_seconds"].samples


@pytest.mark.parametrize("name", ["serve_hot", "serve_cold", "serve_churn"])
@pytest.mark.parametrize("seed", [1, 5, 7])
def test_benchmark_workloads_serve_the_loops_batches(name, seed, monkeypatch):
    """The three serving workloads of ``perfbench`` (scaled down): every
    batch, epoch, flush stamp and answer as the per-request loop's."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, 0.05)
    workload.setup(None)
    _, service = workload._service(record_batches=True)
    _, planned = workload._serve(service)
    _, service = workload._service(record_batches=True)
    service.serve = lambda requests, updates=(): \
        reference_serve.serve(service, requests, updates)
    _, looped = workload._serve(service)
    assert _signature(planned) == _signature(looped)
    assert planned.deterministic_counters() == looped.deterministic_counters()

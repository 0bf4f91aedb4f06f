"""``ServingConfig`` / ``ServingStack``: one value, one wiring, one result.

The config survives a pickle round trip and reaches every layer that reads
it; ``serve()`` is the one front-end, and ``ServingResult`` verifies what
it served.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest

from repro.harness.serving import ServingResult, run_serving
from repro.ingest import IngestConfig
from repro.rules import Packet
from repro.serve import (
    Request,
    RetrainPolicy,
    RuleUpdate,
    ServingConfig,
    ServingStack,
    UnknownTenantError,
)
from repro.serve.stack import epoch_rulesets
from repro.workloads import (
    FlashCrowdConfig,
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)

#: Non-default batch, cache, swap, retrain and ingest fields at once.
NON_DEFAULT = ServingConfig(
    max_batch=24,
    max_delay=5e-4,
    flow_cache_size=96,
    background_swaps=False,
    record_batches=True,
    retrain_threshold=10_000,
    retrain_policy=RetrainPolicy(timesteps=300, max_iterations=1,
                                 backend="serial", seed=3),
    ingest=IngestConfig(tenant_rate=50_000.0, tenant_burst=32,
                        queue_limit=64),
)


def _workload(seed=6):
    specs = make_tenant_specs(3, families=("acl1", "ipc1"), num_rules=40,
                              seed=seed)
    workload = build_workload(
        specs, FlowTraceConfig(num_packets=1200, num_flows=100, seed=seed),
        churn=ChurnConfig(num_events=2, adds_per_event=2,
                          removes_per_event=1),
    )
    return workload, specs


def _serve_once(tenants, rulesets, requests, updates, config):
    """One ``serve()`` on a fresh stack (what ``run_serving`` runs)."""
    stack = ServingStack(config, tenants, rulesets)
    try:
        return stack.service.serve(requests, updates), stack.registry
    finally:
        stack.close()


class TestOneConfigEverywhere:
    def test_the_config_is_the_eight_serving_knobs(self):
        assert [spec.name for spec in fields(ServingConfig)] == [
            "max_batch", "max_delay", "flow_cache_size", "background_swaps",
            "record_batches", "retrain_threshold", "retrain_policy",
            "ingest"]

    def test_pickle_round_trip_compares_equal(self):
        clone = pickle.loads(pickle.dumps(NON_DEFAULT))
        assert clone == NON_DEFAULT
        assert clone.describe() == NON_DEFAULT.describe()

    def test_every_field_reaches_the_run(self):
        workload, tenants = _workload()
        report, _ = _serve_once(tenants, workload.rulesets, workload.requests,
                                workload.updates, NON_DEFAULT)
        counters = report.deterministic_counters()
        # Every non-default field reached the layer that reads it.
        assert counters["num_updates"] == 2
        assert counters["ingest_offered"] == len(workload.requests)
        assert report.batches is not None
        assert max(len(b.requests) for b in report.batches) <= 24

    def test_stack_wires_every_field_and_closes(self):
        workload, tenants = _workload()
        stack = ServingStack(NON_DEFAULT, tenants, workload.rulesets)
        try:
            assert stack.registry.tenants() == [t.tenant_id for t in tenants]
            assert stack.registry.default_flow_cache_size == 96
            assert stack.registry.background_swaps is False
            assert stack.registry.default_retrain_threshold == 10_000
            assert stack.controller.policy == NON_DEFAULT.retrain_policy
            assert stack.service.policy.max_batch == 24
            assert stack.service.policy.max_delay == 5e-4
            assert stack.service.record_batches is True
            assert stack.service.ingest == NON_DEFAULT.ingest
            assert stack.service.retrain_controller is stack.controller
            history = epoch_rulesets(stack.registry)
            assert {t: len(h) for t, h in history.items()} == \
                {t.tenant_id: 1 for t in tenants}
        finally:
            stack.close()
            stack.close()  # idempotent


class TestOneResultType:
    def test_a_run_verifies_against_linear_search(self):
        result = run_serving(
            ServingConfig(background_swaps=False, record_batches=True),
            num_tenants=3, families=("acl1",), num_rules=40,
            num_packets=1500, num_flows=120, churn_events=2, seed=5)
        exactness = result.verify_exactness()
        assert exactness.is_exact
        assert exactness.num_checked == 1500 and exactness.num_post_swap > 0
        assert len(result.tenant_rows()) == 3

    def test_ingest_summaries_span_the_whole_run(self):
        """Admission runs once, in the front-end, under a flash crowd: a
        tenant's goodput is its admitted packets over the run's whole
        trace span, and the summaries add up to the run's counters."""
        report = run_serving(
            ServingConfig(background_swaps=False,
                          ingest=IngestConfig(tenant_rate=20000,
                                              tenant_burst=64,
                                              queue_limit=128)),
            num_tenants=3, families=("acl1", "ipc1"), num_rules=60,
            num_packets=4000, churn_events=2,
            flash_crowd=FlashCrowdConfig(rate_factor=8), seed=0).report
        summaries = {tenant_id: entry["ingest"]
                     for tenant_id, entry in report.per_tenant.items()}
        assert summaries["tenant-01-ipc1"]["throttled"] > 0
        for summary in summaries.values():
            assert summary["goodput_pps"] == pytest.approx(
                summary["admitted"] / report.trace_seconds)
        for name in ("offered", "admitted", "throttled", "shed"):
            assert sum(s[name] for s in summaries.values()) == \
                getattr(report, f"ingest_{name}")


class TestOneFrontEnd:
    """``serve()`` is one event loop, one update intake and one admission
    path."""

    @pytest.mark.parametrize("event", ["arrival", "update"])
    def test_unknown_tenant_fails_typed(self, event):
        workload, tenants = _workload()
        requests, updates = list(workload.requests), list(workload.updates)
        middle = requests[len(requests) // 2].time
        if event == "arrival":
            requests.append(Request("ghost", Packet(1, 2, 3, 4, 6),
                                    time=middle))
        else:
            updates.append(RuleUpdate("ghost", middle))
        with pytest.raises(UnknownTenantError, match="ghost"):
            _serve_once(tenants, workload.rulesets, requests, updates,
                        ServingConfig(background_swaps=False))

    def test_serve_with_ingest_and_a_tail_update(self):
        """Churn, throttling admission and an update 0.5 s past the last
        arrival: the tail update is applied, the trace clock runs to it,
        every admitted packet is answered once, and every answer is the
        linear-search answer of its epoch."""
        specs = make_tenant_specs(3, families=("acl1", "ipc1"),
                                  num_rules=50, seed=4)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=3000, num_flows=150, seed=4),
            churn=ChurnConfig(num_events=3, adds_per_event=3,
                              removes_per_event=1))
        updates = sorted(workload.updates, key=lambda u: u.time)
        last = max(r.time for r in workload.requests)
        updates[-1] = replace(updates[-1], time=last + 0.5)
        config = ServingConfig(
            background_swaps=False, record_batches=True,
            ingest=IngestConfig(tenant_rate=20_000.0, tenant_burst=32,
                                queue_limit=64))
        report, registry = _serve_once(specs, workload.rulesets,
                                       workload.requests, updates, config)
        assert report.num_updates == 3 and report.swaps == 3
        assert report.ingest_throttled > 0
        assert report.trace_seconds > \
            max(r.time for b in report.batches for r in b.requests) + 0.4
        seqs = [r.seq for b in report.batches for r in b.requests]
        assert len(seqs) == len(set(seqs)) == report.ingest_admitted
        exactness = ServingResult(report, workload, registry) \
            .verify_exactness()
        assert exactness.is_exact and exactness.num_checked == len(seqs)

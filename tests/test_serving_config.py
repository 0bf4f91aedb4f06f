"""``ServingConfig`` / ``ServingStack``: one value, one wiring, one result.

The config is validated in one place, survives a pickle round trip, and
drives the single-process and sharded paths to the same answers;
``ServingResult`` verifies both shapes of run the same way.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.harness.scorecard import PLACEMENT_COUNTERS
from repro.harness.serving import run_serving
from repro.ingest import IngestConfig
from repro.rules import Packet
from repro.serve import (
    LoadAwareRebalancePolicy,
    Request,
    RetrainPolicy,
    RuleUpdate,
    ServingConfig,
    ServingStack,
    UnknownTenantError,
    serve_sharded,
)
from repro.workloads import (
    FlashCrowdConfig,
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


class TestValidation:
    """Each range check raises from ``__post_init__`` and nowhere else."""

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ServingConfig(workers=0)

    def test_rebalancing_needs_two_shards(self):
        with pytest.raises(ValueError, match="needs serving workers >= 2"):
            ServingConfig(rebalance_policy=LoadAwareRebalancePolicy())
        ServingConfig(workers=2, rebalance_policy=LoadAwareRebalancePolicy())

    def test_rebalance_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval must be > 0"):
            ServingConfig(rebalance_interval=0.0)


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
    workers=2,
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


class TestOneConfigEverywhere:
    def test_pickle_round_trip_compares_equal(self):
        clone = pickle.loads(pickle.dumps(NON_DEFAULT))
        assert clone == NON_DEFAULT
        assert clone.describe() == NON_DEFAULT.describe()

    def test_every_field_reaches_the_sharded_run(self):
        workload, tenants = _workload()
        _, merged, _ = serve_sharded(
            tenants, workload.rulesets, workload.requests, workload.updates,
            NON_DEFAULT)
        counters = merged.deterministic_counters()
        # Every non-default field reached the layer that reads it.
        assert counters["num_updates"] == 2
        assert counters["ingest_offered"] == len(workload.requests)

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
            history = stack.epoch_rulesets()
            assert {t: len(h) for t, h in history.items()} == \
                {t.tenant_id: 1 for t in tenants}
        finally:
            stack.close()
            stack.close()  # idempotent


class TestOneResultType:
    def test_single_process_and_sharded_runs_verify_identically(self):
        scenario = dict(num_tenants=3, families=("acl1",), num_rules=40,
                        num_packets=1500, num_flows=120, churn_events=2,
                        seed=5)
        sync = ServingConfig(background_swaps=False, record_batches=True)
        single = run_serving(sync, **scenario)
        sharded = run_serving(
            ServingConfig(background_swaps=False, record_batches=True,
                          workers=2),
            **scenario)
        assert single.registry is not None and not single.outcomes
        assert sharded.registry is None and sharded.num_shards == 2
        exactness = single.verify_exactness()
        assert exactness == sharded.verify_exactness()
        assert exactness.is_exact
        assert exactness.num_checked == 1500 and exactness.num_post_swap > 0
        assert single.report.deterministic_counters() == \
            sharded.report.deterministic_counters()
        # Same row schema either way; the sharded run adds its shard count.
        assert [row[0] for row in sharded.rows()] == \
            [row[0] for row in single.rows()] + ["serving shards"]
        assert sharded.rows()[-1] == ["serving shards", "2"]
        assert len(single.tenant_rows()) == len(sharded.tenant_rows()) == 3
        assert single.shard_rows() == []

    def test_ingest_summaries_span_the_whole_run_on_every_placement(self):
        """Admission runs once, in the front-end: a tenant's goodput is
        taken over the run's trace span whichever shard serves it, so the
        single-process, static and rebalanced runs report the same
        per-tenant ``ingest`` summaries and the same counters."""
        scenario = dict(num_tenants=3, families=("acl1", "ipc1"),
                        num_rules=60, num_packets=4000, churn_events=2,
                        flash_crowd=FlashCrowdConfig(rate_factor=8), seed=0)
        ingest = IngestConfig(tenant_rate=20000, tenant_burst=64,
                              queue_limit=128)
        runs = [
            run_serving(ServingConfig(background_swaps=False, ingest=ingest,
                                      **fields), **scenario).report
            for fields in (
                {},
                {"workers": 2},
                {"workers": 2,
                 "rebalance_policy": LoadAwareRebalancePolicy()},
            )
        ]
        summaries = [{tenant_id: entry["ingest"]
                      for tenant_id, entry in report.per_tenant.items()}
                     for report in runs]
        assert summaries[0]["tenant-01-ipc1"]["throttled"] > 0
        assert summaries[1] == summaries[0]
        assert summaries[2] == summaries[0]
        counters = [report.deterministic_counters() for report in runs]
        for placed in counters:
            for key in PLACEMENT_COUNTERS:
                placed.pop(key)
        assert counters[1] == counters[0]
        assert counters[2] == counters[0]


def _serve_once(tenants, rulesets, requests, updates, config):
    """One single-process ``serve()`` on a fresh stack (what
    ``run_serving`` runs at one worker), called as ``serve_sharded`` is."""
    stack = ServingStack(config, tenants, rulesets)
    try:
        return stack.service.serve(requests, updates)
    finally:
        stack.close()


class TestOneFrontEnd:
    """``serve()`` and ``serve_sharded`` are one event loop, one update
    intake and one admission path over different session routers."""

    @pytest.mark.parametrize("event", ["arrival", "update"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_tenant_fails_typed(self, workers, event):
        workload, tenants = _workload()
        requests, updates = list(workload.requests), list(workload.updates)
        middle = requests[len(requests) // 2].time
        if event == "arrival":
            requests.append(Request("ghost", Packet(1, 2, 3, 4, 6),
                                    time=middle))
        else:
            updates.append(RuleUpdate("ghost", middle))
        config = ServingConfig(background_swaps=False, workers=workers)
        front_ends = [serve_sharded]
        if workers == 1:
            front_ends.append(_serve_once)
        for front_end in front_ends:
            with pytest.raises(UnknownTenantError, match="ghost"):
                front_end(tenants, workload.rulesets, requests, updates,
                          config)

    def test_serve_equals_sharded_with_ingest_and_a_tail_update(self):
        """Churn, throttling admission and an update 0.5 s past the last
        arrival: the same answer for every ``seq``, the same per-tenant
        ``ingest`` summaries and the same counters on every front-end, and
        one shard plans exactly the single process's batches."""
        def run(front_end, workers):
            specs = make_tenant_specs(3, families=("acl1", "ipc1"),
                                      num_rules=50, seed=4)
            workload = build_workload(
                specs, FlowTraceConfig(num_packets=3000, num_flows=150,
                                       seed=4),
                churn=ChurnConfig(num_events=3, adds_per_event=3,
                                  removes_per_event=1))
            updates = sorted(workload.updates, key=lambda u: u.time)
            last = max(r.time for r in workload.requests)
            updates[-1] = replace(updates[-1], time=last + 0.5)
            config = ServingConfig(
                background_swaps=False, record_batches=True,
                ingest=IngestConfig(tenant_rate=20_000.0, tenant_burst=32,
                                    queue_limit=64),
                workers=workers)
            report = front_end(specs, workload.rulesets, workload.requests,
                               updates, config)
            return report[1] if front_end is serve_sharded else report

        reports = [run(_serve_once, 1), run(serve_sharded, 1),
                   run(serve_sharded, 2)]
        single = reports[0]
        assert single.num_updates == 3
        assert single.ingest_throttled > 0
        assert single.trace_seconds > \
            max(r.time for b in single.batches for r in b.requests) + 0.4

        def answers(report):
            return {request.seq: priority for batch in report.batches
                    for request, priority in zip(batch.requests,
                                                 batch.priorities)}

        def ingest(report):
            return {tenant_id: entry["ingest"]
                    for tenant_id, entry in report.per_tenant.items()}

        def counters(report):
            counters = report.deterministic_counters()
            for key in PLACEMENT_COUNTERS:
                counters.pop(key)
            return counters

        for report in reports[1:]:
            assert answers(report) == answers(single)
            assert ingest(report) == ingest(single)
            assert counters(report) == counters(single)
        assert len(answers(single)) == single.ingest_admitted
        assert [(b.tenant_id, b.epoch, b.flush_time,
                 [r.seq for r in b.requests]) for b in reports[1].batches] \
            == [(b.tenant_id, b.epoch, b.flush_time,
                 [r.seq for r in b.requests]) for b in single.batches]

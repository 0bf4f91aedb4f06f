"""Tests for the multi-tenant serving layer (`repro.serve`)."""

from __future__ import annotations

import random

import pytest

from repro.baselines import HiCutsBuilder
from repro.classbench import generate_classifier
from repro.harness.serving import run_serving
from repro.rules import Packet, Rule
from repro.serve import (
    BatchPolicy,
    ClassificationService,
    EngineSlot,
    MicroBatcher,
    Request,
    RuleUpdate,
    ServingConfig,
    TenantRegistry,
    UnknownTenantError,
)
from repro.workloads import (
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


def _request(tenant: str, time: float, value: int = 1) -> Request:
    packet = Packet.from_values((value, value, value % 65536,
                                 value % 65536, value % 256))
    return Request(tenant_id=tenant, packet=packet, time=time)


class TestBatchPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay=-1.0)


class TestMicroBatcher:
    def test_releases_full_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=3, max_delay=10.0))
        assert batcher.offer(_request("a", 0.0)) == []
        assert batcher.offer(_request("a", 0.1)) == []
        released = batcher.offer(_request("a", 0.2))
        assert len(released) == 1
        tenant, batch = released[0]
        assert tenant == "a" and len(batch) == 3
        assert len(batcher) == 0

    def test_deadline_releases_oldest_queue(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_delay=1.0))
        batcher.offer(_request("a", 0.0))
        batcher.offer(_request("b", 0.5))
        released = batcher.poll(1.2)
        assert [tenant for tenant, _ in released] == ["a"]
        # The request arriving at 1.6 expires b's queue (0.5 + 1.0 <= 1.6).
        released = batcher.offer(_request("c", 1.6))
        assert [tenant for tenant, _ in released] == ["b"]

    def test_queues_are_per_tenant(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_delay=10.0))
        batcher.offer(_request("a", 0.0))
        released = batcher.offer(_request("b", 0.0))
        assert released == []
        released = batcher.offer(_request("a", 0.1))
        assert len(released) == 1 and released[0][0] == "a"
        assert batcher.pending_tenants == ["b"]

    def test_flush_all_drains_everything(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=10, max_delay=10.0))
        batcher.offer(_request("a", 0.0))
        batcher.offer(_request("b", 0.0))
        released = batcher.flush_all()
        assert sorted(t for t, _ in released) == ["a", "b"]
        assert len(batcher) == 0 and batcher.flush_all() == []


@pytest.fixture(scope="module")
def serving_ruleset():
    return generate_classifier("acl1", 80, seed=11)


@pytest.fixture()
def slot(serving_ruleset):
    classifier = HiCutsBuilder(binth=8).build(serving_ruleset)
    return EngineSlot("t0", classifier, flow_cache_size=256)


class TestEngineSlot:
    def _fresh_rule(self, slot, **fields) -> Rule:
        priority = max(r.priority for r in slot.ruleset) + 1
        return Rule.from_prefixes(src_ip="198.51.100.0/24", protocol=6,
                                  priority=priority, name="hot", **fields)

    def test_starts_at_epoch_zero(self, slot, serving_ruleset):
        assert slot.epoch == 0
        assert slot.ruleset_at(0) is serving_ruleset

    def test_update_swaps_engine_and_ruleset(self, slot):
        rule = self._fresh_rule(slot)
        old_engine = slot.engine()
        slot.apply_update(adds=[rule])
        assert slot.epoch == 1
        assert slot.engine() is not old_engine
        assert rule in slot.ruleset.rules
        # A packet inside the new rule is answered by the new rule.
        packet = slot.ruleset.sample_matching_packet(rule, random.Random(0))
        match = slot.engine().classify(packet)
        assert match is not None and match.priority == rule.priority

    def test_remove_rule_takes_effect(self, slot):
        victim = next(r for r in slot.ruleset.rules
                      if r.num_wildcard_dims() < 5)
        packet = slot.ruleset.sample_matching_packet(victim, random.Random(1))
        slot.apply_update(removes=[victim])
        post = slot.ruleset
        assert victim not in post.rules
        expected = post.classify(packet)
        actual = slot.engine().classify(packet)
        assert (actual.priority if actual else None) == \
            (expected.priority if expected else None)

    def test_empty_update_is_a_noop(self, slot):
        slot.apply_update()
        assert slot.epoch == 0 and slot.swap_stats.swaps == 0

    def test_update_installs_its_engine_before_returning(self, slot):
        rule = self._fresh_rule(slot)
        old_engine = slot.engine()
        slot.apply_update(adds=[rule])
        # The rebuild ran in the call: the next batch already serves the
        # new generation, and the old one is retired with its snapshot.
        assert slot.epoch == 1 and slot.swap_stats.swaps == 1
        assert len(slot.swap_stats.build_seconds) == 1
        assert slot.engine() is not old_engine
        assert rule in slot.ruleset_at(1).rules
        assert rule not in slot.ruleset_at(0).rules

    def test_back_to_back_updates_stay_ordered(self, serving_ruleset):
        classifier = HiCutsBuilder(binth=8).build(serving_ruleset)
        slot = EngineSlot("bb", classifier)
        base = max(r.priority for r in slot.ruleset) + 1
        rules = [Rule.from_prefixes(src_ip=f"203.0.{i}.0/24",
                                    priority=base + i, name=f"u{i}")
                 for i in range(3)]
        for i, rule in enumerate(rules):
            slot.apply_update(adds=[rule])
            assert slot.epoch == i + 1
        assert slot.epoch == 3
        # Each epoch's snapshot contains exactly the updates applied so far.
        for i in range(3):
            snapshot = slot.ruleset_at(i + 1)
            assert rules[i] in snapshot.rules
            for later in rules[i + 1:]:
                assert later not in snapshot.rules

    def test_cumulative_cache_stats_survive_swaps(self, slot):
        packet = next(iter(slot.ruleset.sample_packets(1, seed=3)))
        slot.engine().classify(packet)
        slot.engine().classify(packet)
        before = slot.cache_stats()
        assert before.hits == 1 and before.misses == 1
        slot.apply_update(adds=[self._fresh_rule(slot)])
        slot.engine().classify(packet)
        after = slot.cache_stats()
        # The retired engine's counters are folded in, the new engine's
        # (one cold miss) added on top, and the swap records the retired
        # cache's flow as invalidated.
        assert after.hits == 1 and after.misses == 2
        assert after.invalidations == 1


class TestTenantRegistry:
    def test_register_and_lookup(self, serving_ruleset):
        registry = TenantRegistry()
        slot = registry.register("alpha", serving_ruleset)
        assert "alpha" in registry and len(registry) == 1
        assert registry.slot("alpha") is slot
        assert registry.tenants() == ["alpha"]

    def test_duplicate_and_unknown_tenants_raise(self, serving_ruleset):
        registry = TenantRegistry()
        registry.register("alpha", serving_ruleset)
        with pytest.raises(ValueError):
            registry.register("alpha", serving_ruleset)
        with pytest.raises(UnknownTenantError):
            registry.slot("beta")

    def test_register_needs_rules_or_classifier(self):
        with pytest.raises(ValueError):
            TenantRegistry().register("empty")

    def test_register_rejects_unknown_algorithm(self, serving_ruleset):
        with pytest.raises(ValueError):
            TenantRegistry().register("alpha", serving_ruleset,
                                      algorithm="Nope")

    def test_deregister_returns_the_updated_slot(self, serving_ruleset):
        registry = TenantRegistry()
        slot = registry.register("alpha", serving_ruleset)
        rule = Rule.from_prefixes(
            src_ip="203.0.113.0/24",
            priority=max(r.priority for r in slot.ruleset) + 1,
        )
        registry.apply_update("alpha", adds=[rule])
        assert slot.epoch == 1
        removed = registry.deregister("alpha")
        assert removed is slot and removed.epoch == 1
        assert "alpha" not in registry

    def test_background_swaps_are_refused(self):
        # Only ``False`` survives, for callers that still spell it out.
        assert len(TenantRegistry(background_swaps=False)) == 0
        with pytest.raises(ValueError):
            TenantRegistry(background_swaps=True)

    def test_telemetry_shape(self, serving_ruleset):
        registry = TenantRegistry()
        registry.register("alpha", serving_ruleset)
        entry = registry.telemetry()["alpha"]
        assert set(entry) == {"rules", "epoch", "cache", "swap", "retrain"}
        assert entry["cache"]["hits"] == 0 and entry["swap"]["swaps"] == 0
        assert entry["retrain"]["accumulated_updates"] == 0
        assert entry["retrain"]["needs_retraining"] is False


class TestClassificationService:
    @pytest.fixture()
    def scenario(self):
        specs = make_tenant_specs(2, families=("acl1", "fw1"), num_rules=60,
                                  seed=2)
        workload = build_workload(
            specs,
            FlowTraceConfig(num_packets=1500, num_flows=120, seed=5),
            churn=ChurnConfig(num_events=2, adds_per_event=2,
                              removes_per_event=1),
        )
        registry = TenantRegistry(default_flow_cache_size=512)
        for spec in specs:
            registry.register(spec.tenant_id,
                              workload.rulesets[spec.tenant_id],
                              algorithm=spec.algorithm, binth=spec.binth)
        return workload, registry

    def test_serves_every_request_exactly_once(self, scenario):
        workload, registry = scenario
        service = ClassificationService(registry, BatchPolicy(max_batch=32))
        report = service.serve(workload.requests, updates=workload.updates)
        assert report.num_requests == len(workload.requests)
        assert report.num_updates == len(workload.updates)
        assert report.swaps == len(workload.updates)
        assert report.pps > 0
        assert report.mean_batch_size > 1.0

    def test_differential_exactness_across_swaps(self, scenario):
        workload, registry = scenario
        service = ClassificationService(registry, BatchPolicy(max_batch=32),
                                        record_batches=True)
        report = service.serve(workload.requests, updates=workload.updates)
        post_swap = mismatches = 0
        for batch in report.batches:
            ruleset = registry.slot(batch.tenant_id).ruleset_at(batch.epoch)
            post_swap += len(batch.requests) if batch.epoch else 0
            for request, priority in zip(batch.requests, batch.priorities):
                expected = ruleset.classify(request.packet)
                if (expected.priority if expected else None) != priority:
                    mismatches += 1
        assert post_swap > 0
        assert mismatches == 0

    def test_latency_percentiles_are_ordered(self, scenario):
        workload, registry = scenario
        service = ClassificationService(registry, BatchPolicy(max_batch=32))
        report = service.serve(workload.requests)
        assert report.latency_percentiles[50.0] <= \
            report.latency_percentiles[90.0] <= \
            report.latency_percentiles[99.0]
        assert report.latency_ms(50.0) == \
            pytest.approx(report.latency_percentiles[50.0] * 1e3)

    def test_updates_after_last_request_still_apply(self, serving_ruleset):
        registry = TenantRegistry()
        registry.register("alpha", serving_ruleset)
        rule = Rule.from_prefixes(
            src_ip="203.0.113.0/24",
            priority=max(r.priority for r in serving_ruleset) + 1,
        )
        service = ClassificationService(registry, BatchPolicy(max_batch=8))
        requests = [Request("alpha", p, time=i * 1e-4) for i, p in
                    enumerate(serving_ruleset.sample_packets(20, seed=9))]
        late = RuleUpdate(tenant_id="alpha", time=1.0, adds=(rule,))
        report = service.serve(requests, updates=[late])
        assert report.num_requests == 20
        assert registry.slot("alpha").epoch == 1
        assert rule in registry.slot("alpha").ruleset.rules
        # The far-future update must not inflate the tail requests' queueing
        # latency: they are charged their batching deadline, not the one
        # second the stream sat idle before the update arrived.
        assert report.latency_percentiles[99.0] < 0.1

    def test_empty_stream_reports_zeroes(self, serving_ruleset):
        registry = TenantRegistry()
        registry.register("alpha", serving_ruleset)
        report = ClassificationService(registry).serve([])
        assert report.num_requests == 0 and report.num_batches == 0
        assert report.cache_hit_rate == 0.0
        assert report.latency_percentiles[99.0] == 0.0

    def test_default_config_serves_each_update_from_its_barrier_on(self):
        """Under the default config and churn, every request arriving at or
        after an update's stamp is served by the post-update engine and
        every earlier one by the engine before it; a second run serves the
        same batches at the same epochs with the same counters."""
        def run():
            return run_serving(
                ServingConfig(record_batches=True), num_tenants=3,
                families=("acl1", "fw1"), num_rules=60, num_packets=3000,
                num_flows=150, churn_events=6, seed=3)

        first, second = run(), run()
        report, updates = first.report, first.workload.updates
        assert report.num_updates == report.swaps == len(updates) == 6
        assert any(batch.epoch for batch in report.batches)
        for batch in report.batches:
            for request in batch.requests:
                applied = sum(1 for u in updates
                              if u.tenant_id == batch.tenant_id
                              and u.time <= request.time)
                assert batch.epoch == applied
        assert report.deterministic_counters() == \
            second.report.deterministic_counters()
        assert [(b.tenant_id, b.epoch, len(b.requests))
                for b in report.batches] == \
            [(b.tenant_id, b.epoch, len(b.requests))
             for b in second.report.batches]

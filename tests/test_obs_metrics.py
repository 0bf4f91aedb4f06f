"""Tests for the metrics registry (`repro.obs.metrics`).

Registries must pickle, and merging them must be exact and
order-independent (a serving report folds the admission front-end's
registry into the serving one).  So the tests here lean on pickling
round-trips, merge associativity, and the serving integration that carries
a registry snapshot on every report.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.obs import MetricsRegistry, stable_dict
from repro.obs.metrics import TIMING_PERCENTILES, Counter, Gauge, Timing
from repro.serve import (
    BatchPolicy,
    ClassificationService,
    ServingConfig,
    ServingStack,
    TenantRegistry,
)
from repro.workloads import (
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


def _merged(registries):
    """A fresh registry with every one of ``registries`` merged in."""
    result = MetricsRegistry()
    for registry in registries:
        result.merge(registry)
    return result


def _registry(counter=0, gauge=0.0, samples=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("c").inc(counter)
    if gauge:
        reg.gauge("g").set(gauge)
    for sample in samples:
        reg.timing("t").observe(sample)
    return reg


class TestPrimitives:
    def test_counter_rejects_negative_and_float_drift(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_merge_keeps_max_and_sums_updates(self):
        left, right = Gauge("g"), Gauge("g")
        left.set(3.0)
        right.set(2.0)
        right.set(7.0)
        left.merge(right)
        assert left.value == 7.0
        assert left.updates == 3

    def test_timing_stats_over_raw_samples(self):
        timing = Timing("t")
        for sample in (0.1, 0.3, 0.2):
            timing.observe(sample)
        assert timing.count == 3
        assert timing.total == pytest.approx(0.6)
        assert timing.mean == pytest.approx(0.2)
        assert timing.max == pytest.approx(0.3)
        assert timing.percentile(50) == pytest.approx(0.2)
        summary = timing.as_dict()
        for pct in TIMING_PERCENTILES:
            assert f"p{pct:g}_seconds" in summary

    @pytest.mark.parametrize("batch", [
        [0.1, 0.30000000000000004, 1e-9, 0.0, 3],
        np.array([0.25, 0.1 + 0.2, 5e-324]),
        np.arange(4, dtype=np.float32) / 3,
        [],
    ], ids=["list", "float64", "float32", "empty"])
    def test_observe_many_is_observe_on_each(self, batch):
        """Same samples, as Python floats, through stats, merge and pickle."""
        one_by_one, at_once = Timing("t"), Timing("t")
        for registry_timing in (one_by_one, at_once):
            registry_timing.observe(0.5)
        for sample in batch:
            one_by_one.observe(sample)
        at_once.observe_many(batch)
        assert at_once.samples == one_by_one.samples
        assert {type(s) for s in at_once.samples} == {float}
        assert at_once.as_dict() == one_by_one.as_dict()
        assert (at_once.count, at_once.total) == \
            (one_by_one.count, one_by_one.total)

        def registry_of(timing):
            registry = MetricsRegistry()
            registry.timing("t").merge(timing)
            registry.timing("other").observe(1.0)
            return registry

        merged = [_merged([registry_of(t), registry_of(t)])
                  for t in (at_once, one_by_one)]
        assert merged[0].summary() == merged[1].summary()
        assert merged[0].timings["t"].samples == 2 * one_by_one.samples
        thawed = pickle.loads(pickle.dumps(merged[0]))
        assert thawed.summary() == merged[1].summary()
        assert thawed.timings["t"].samples == merged[1].timings["t"].samples

    def test_empty_timing_summary_is_zeroed(self):
        timing = Timing("t")
        assert timing.count == 0
        assert timing.mean == 0.0
        assert timing.percentile(99) == 0.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.timing("y") is reg.timing("y")
        assert len(reg) == 2

    def test_name_bound_to_one_kind(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.timing("x")

    def test_span_records_even_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("phase"):
                raise RuntimeError("boom")
        assert reg.timing("phase").count == 1

    def test_merge_is_exact_and_associative_across_pickling(self):
        regs = [
            _registry(counter=3, gauge=1.0, samples=(0.1, 0.2)),
            _registry(counter=5, gauge=9.0, samples=(0.05,)),
            _registry(counter=2, samples=(0.4, 0.3, 0.9)),
        ]
        # Registries cross a process boundary pickled.
        thawed = [pickle.loads(pickle.dumps(r)) for r in regs]

        left = _merged([thawed[0], thawed[1]])
        left.merge(thawed[2])
        right = _merged([thawed[1], thawed[2], thawed[0]])

        assert left.counters["c"].value == right.counters["c"].value == 10
        assert left.gauges["g"].value == right.gauges["g"].value == 9.0
        assert sorted(left.timings["t"].samples) == \
            sorted(right.timings["t"].samples)
        assert left.timings["t"].count == 6
        assert left.timings["t"].percentile(99) == \
            pytest.approx(right.timings["t"].percentile(99))

    def test_merge_leaves_its_arguments_untouched(self):
        one = _registry(counter=1, samples=(0.5,))
        two = _registry(counter=2)
        merged = MetricsRegistry()
        merged.merge(one).merge(two)
        merged.counter("c").inc(100)
        merged.timing("t").observe(9.9)
        assert one.counters["c"].value == 1
        assert two.counters["c"].value == 2
        assert one.timings["t"].samples == [0.5]

    def test_snapshot_is_detached_from_the_live_registry(self):
        live = _registry(counter=3, gauge=2.0, samples=(0.1, 0.2))
        frozen = live.snapshot()
        assert frozen.counters["c"].value == 3
        assert frozen.gauges["g"].value == 2.0
        assert frozen.timings["t"].samples == [0.1, 0.2]
        # The live side keeps observing; the snapshot must not move.
        live.counter("c").inc(10)
        live.timing("t").observe(9.9)
        live.gauge("g").set(8.0)
        assert frozen.counters["c"].value == 3
        assert frozen.gauges["g"].value == 2.0
        assert frozen.timings["t"].samples == [0.1, 0.2]
        # And vice versa: mutating the snapshot leaves the live side alone.
        frozen.counter("c").inc(100)
        assert live.counters["c"].value == 13

    def test_summary_and_as_dict_have_stable_keys(self):
        reg = _registry(counter=2, gauge=4.0, samples=(0.1,))
        snapshot = reg.as_dict()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["counters"]["c"] == 2
        assert snapshot["timings"]["t"]["count"] == 1


class TestStableDict:
    def test_sorts_and_coerces(self):
        import numpy as np

        out = stable_dict({"b": np.int64(2), "a": (1, 2), "c": {"z": 1}})
        assert list(out) == ["a", "b", "c"]
        assert out["b"] == 2 and isinstance(out["b"], int)
        assert out["a"] == [1, 2]
        assert out["c"] == {"z": 1}


def _serve(seed=4, **fields):
    specs = make_tenant_specs(3, families=("acl1", "ipc1"),
                              num_rules=50, seed=seed)
    workload = build_workload(
        specs, FlowTraceConfig(num_packets=1500, num_flows=120, seed=seed),
        churn=ChurnConfig(num_events=2, adds_per_event=2,
                          removes_per_event=1),
    )
    stack = ServingStack(ServingConfig(**fields), specs, workload.rulesets)
    try:
        return stack.service.serve(workload.requests, workload.updates)
    finally:
        stack.close()


class TestServingIntegration:
    def test_report_metrics_count_every_request_batch_and_swap(self):
        report = _serve()
        metrics = report.metrics
        assert metrics is not None
        assert metrics.counters["serve.requests"].value == \
            report.num_requests == 1500
        assert metrics.counters["serve.batches"].value == report.num_batches
        # One queue-wait per request, one flush per batch, one
        # swap-install per installed swap.
        assert metrics.timings["serve.queue_wait_seconds"].count == \
            report.num_requests
        assert metrics.timings["serve.batch_flush_seconds"].count == \
            report.num_batches
        assert metrics.timings["serve.swap_install_seconds"].count == \
            report.swaps
        assert metrics.timings["engine.compile_seconds"].count >= 3
        assert report.swap_stats is not None
        assert report.swap_stats.swaps == report.swaps

    def test_sync_swap_counters_repeat_exactly(self):
        # The determinism contract (synchronous swaps): every counter,
        # cache hits included, is a pure function of the workload.
        first = _serve(background_swaps=False)
        second = _serve(background_swaps=False)
        assert first.deterministic_counters() == \
            second.deterministic_counters()
        assert first.metrics.summary()["counters"] == \
            second.metrics.summary()["counters"]

    def test_report_metrics_are_a_snapshot_not_the_live_registry(self):
        specs = make_tenant_specs(1, families=("acl1",), num_rules=40,
                                  seed=7)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=400, num_flows=60, seed=7))
        registry = TenantRegistry(background_swaps=False)
        for spec in specs:
            registry.register(spec.tenant_id,
                              workload.rulesets[spec.tenant_id],
                              algorithm=spec.algorithm, binth=spec.binth)
        service = ClassificationService(registry, BatchPolicy(max_batch=32))
        first = service.serve(workload.requests)
        served = first.metrics.counters["serve.requests"].value
        assert served == first.num_requests
        # A second run on the same service keeps writing into the live
        # registry (cumulative by design) but must not move the first
        # report's embedded snapshot.
        second = service.serve(workload.requests)
        assert first.metrics.counters["serve.requests"].value == served
        assert second.metrics.counters["serve.requests"].value == 2 * served
        assert registry.metrics.counters["serve.requests"].value == 2 * served

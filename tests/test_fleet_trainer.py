"""Tests for the fleet trainer's shared multiplexed retrain pool.

Two layers, mirroring the subsystem's contracts:

1. **RetrainPool semantics**: round-robin fairness across keys, FIFO
   within a key, queue-depth accounting, exception transparency, and the
   process-local shared-pool registry handing every controller the *same*
   pool (and underlying executor) — the fleet-trainer contract.
2. **Controller lifecycle**: a trace that dies mid-stream cannot leak
   retrain executors (threads joined by the ``finally``).
"""

from __future__ import annotations

import threading

import pytest

from repro.executors import (
    RetrainPool,
    RolloutExecutor,
    SerialExecutor,
    TaskHandle,
    ThreadExecutor,
    shared_retrain_pool,
)
from repro.harness import serving
from repro.serve import (
    RetrainController,
    RetrainPolicy,
    ServingConfig,
    TenantRegistry,
)
from repro.rules import Rule
from repro.workloads import (
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


def _fresh_rules(ruleset, count, tag="fleet"):
    base = max(r.priority for r in ruleset) + 1
    return [
        Rule.from_prefixes(src_ip=f"198.51.{i}.0/24", priority=base + i,
                           name=f"{tag}{i}")
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# RetrainPool: fairness, FIFO, accounting, shared registry
# --------------------------------------------------------------------------- #


class _ManualHandle(TaskHandle):
    """A handle the test completes explicitly (models a running retrain)."""

    def __init__(self, func, item):
        self._func = func
        self._item = item
        self._released = False

    def release(self):
        self._released = True

    def ready(self):
        return self._released

    def result(self):
        assert self._released, "result() before the test released the task"
        return self._func(self._item)


class _ManualExecutor(RolloutExecutor):
    """Records dispatch order; tasks finish only when the test says so."""

    def __init__(self, num_workers=1):
        self.num_workers = num_workers
        self.dispatched = []
        self.handles = []

    def submit(self, func, item):
        handle = _ManualHandle(func, item)
        self.dispatched.append(item)
        self.handles.append(handle)
        return handle


class TestRetrainPool:
    def test_round_robin_across_keys_fifo_within_key(self):
        executor = _ManualExecutor(num_workers=1)
        pool = RetrainPool(executor)
        a1 = pool.submit("a", lambda x: x, "a1")
        a2 = pool.submit("a", lambda x: x, "a2")
        a3 = pool.submit("a", lambda x: x, "a3")
        b1 = pool.submit("b", lambda x: x, "b1")
        assert executor.dispatched == ["a1"]  # capacity 1: rest queued
        assert pool.queue_depth() == 3
        assert pool.submitted == 4

        executor.handles[0].release()
        assert a1.ready()
        # "a" was rotated behind "b" when a2 dispatched, so the noisy
        # tenant's third task waits for the other key's turn.
        assert executor.dispatched == ["a1", "a2"]
        executor.handles[1].release()
        assert a2.ready()
        assert executor.dispatched == ["a1", "a2", "b1"]
        executor.handles[2].release()
        assert b1.ready()
        assert executor.dispatched == ["a1", "a2", "b1", "a3"]
        executor.handles[3].release()
        assert a3.result() == "a3"
        assert b1.result() == "b1"
        assert pool.queue_depth() == 0

    def test_serial_backend_runs_inline_and_stays_deterministic(self):
        pool = RetrainPool(SerialExecutor())
        order = []
        handles = [pool.submit(key, order.append, key)
                   for key in ("a", "b", "a")]
        # Inline dispatch drains the queue at submit time: FIFO, no waiting.
        assert order == ["a", "b", "a"]
        assert all(h.ready() for h in handles)
        assert pool.queue_depth() == 0

    def test_exceptions_surface_through_result_and_pool_survives(self):
        pool = RetrainPool(SerialExecutor())

        def boom(_):
            raise ValueError("retrain failed")

        failed = pool.submit("t0", boom, None)
        assert failed.ready()
        with pytest.raises(ValueError, match="retrain failed"):
            failed.result()
        assert pool.submit("t0", lambda x: x + 1, 1).result() == 2

    def test_shared_pool_registry_is_keyed_by_backend_and_width(self):
        first = shared_retrain_pool(1, backend="serial")
        assert shared_retrain_pool(1, backend="serial") is first
        assert first.executor is shared_retrain_pool(
            1, backend="serial").executor
        assert shared_retrain_pool(2, backend="thread") is not first
        with pytest.raises(ValueError):
            shared_retrain_pool(0)
        with pytest.raises(ValueError):
            shared_retrain_pool(1, backend="bogus")


class TestControllersShareOnePool:
    """The tentpole contract: one pool instance, not per-controller pools."""

    @pytest.fixture()
    def shared_policy(self):
        return RetrainPolicy(timesteps=300, max_iterations=1,
                             backend="serial", shared_pool_size=1,
                             quality_gate=False)

    def test_policy_validates_pool_size(self):
        with pytest.raises(ValueError):
            RetrainPolicy(shared_pool_size=0)

    def test_two_controllers_two_registries_one_pool(self, small_acl_ruleset,
                                                     shared_policy):
        registries = [
            TenantRegistry(background_swaps=False,
                           default_retrain_threshold=3)
            for _ in range(2)
        ]
        controllers = []
        for index, registry in enumerate(registries):
            registry.register(f"t{index}", small_acl_ruleset)
            controllers.append(RetrainController(registry, shared_policy))
        c1, c2 = controllers
        # Pool *and* its worker executor are the same objects — retrains
        # across controllers multiplex over one pool, nothing per-controller.
        assert c1.pool is c2.pool
        assert c1.pool.executor is c2.pool.executor
        before = c1.pool.submitted

        for index, (registry, controller) in enumerate(
                zip(registries, controllers)):
            tenant_id = f"t{index}"
            for rule in _fresh_rules(registry.slot(tenant_id).ruleset, 3,
                                     tag=f"pool{index}"):
                registry.apply_update(tenant_id, adds=[rule])
            assert controller.poll_tenant(tenant_id) is True
            assert controller.stats.installed == 1
            assert controller.stats.queued == 1
        assert c1.pool.submitted == before + 2
        # Shared pools outlive any one controller: close() must not tear
        # down the executor other controllers are still multiplexed over.
        c1.close()
        assert c2.pool is shared_retrain_pool(1, backend="serial")
        c2.close()

    def test_queue_depth_gauge_registered_and_settles_to_zero(
            self, small_acl_ruleset, shared_policy):
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=3)
        registry.register("t0", small_acl_ruleset)
        gauge = registry.metrics.gauge("serve.retrain_queue_depth")
        assert gauge.value == 0
        with RetrainController(registry, shared_policy) as controller:
            for rule in _fresh_rules(small_acl_ruleset, 3, tag="gauge"):
                registry.apply_update("t0", adds=[rule])
            assert controller.poll_tenant("t0") is True
        assert gauge.value == 0


# --------------------------------------------------------------------------- #
# Controller lifecycle: no executor leaks
# --------------------------------------------------------------------------- #


class TestControllerLifecycle:
    def test_close_shuts_down_owned_executor_idempotently(
            self, small_acl_ruleset):
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=3)
        registry.register("t0", small_acl_ruleset)
        controller = RetrainController(
            registry, RetrainPolicy(timesteps=300, max_iterations=1,
                                    backend="thread", quality_gate=False))
        executor = controller._executor
        assert isinstance(executor, ThreadExecutor)
        for rule in _fresh_rules(small_acl_ruleset, 3, tag="close"):
            registry.apply_update("t0", adds=[rule])
        controller.poll_tenant("t0")
        assert executor.is_running  # the retrain actually started threads
        controller.drain()
        controller.close()
        assert not executor.is_running
        controller.close()

    def test_mid_trace_exception_does_not_leak_retrain_threads(
            self, monkeypatch):
        """A run dying mid-stream must still close its retrain executor
        (threads joined): ``run_serving`` serves inside ``try/finally``."""
        import dataclasses as dc

        threshold = 4
        specs = make_tenant_specs(2, families=("acl1",), num_rules=40,
                                  seed=12)
        workload = build_workload(
            specs,
            FlowTraceConfig(num_packets=1500, num_flows=100, seed=12),
            churn=ChurnConfig.forcing_retrain(threshold, num_tenants=2,
                                              adds_per_event=2,
                                              removes_per_event=0,
                                              window=(0.1, 0.5)),
        )
        # Poison the stream after the churn window: by then the
        # thread-backend retrain executor has started its pool.
        poison = dc.replace(workload.updates[-1], tenant_id="ghost",
                            time=workload.requests[-1].time)
        workload.updates = list(workload.updates) + [poison]
        monkeypatch.setattr(serving, "build_workload",
                            lambda *args, **kwargs: workload)
        before = set(threading.enumerate())
        with pytest.raises(KeyError):
            serving.run_serving(
                ServingConfig(
                    background_swaps=False,
                    retrain_threshold=threshold,
                    retrain_policy=RetrainPolicy(timesteps=300,
                                                 max_iterations=1,
                                                 backend="thread",
                                                 quality_gate=False),
                ),
                num_tenants=2, families=("acl1",), num_rules=40, seed=12,
            )
        leaked = set(threading.enumerate()) - before
        assert not leaked, f"retrain threads leaked: {leaked}"

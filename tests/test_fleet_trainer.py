"""Tests for the fleet trainer: pipelined rollout collection with
one-generation weight staleness, shared-memory weight broadcast, and the
shared multiplexed retrain pool.

Four layers, mirroring the subsystem's contracts:

1. **Broadcast mechanics**: the double-buffered seqlock block round-trips
   weight generations exactly, and a lapped (stale) handle raises instead
   of silently returning unknown weights.
2. **RetrainPool semantics**: round-robin fairness across keys, FIFO
   within a key, queue-depth accounting, exception transparency, and the
   process-local shared-pool registry handing every controller the *same*
   pool (and underlying executor) — the fleet-trainer contract.
3. **Async collection determinism**: a checkpoint saved by a lag-0
   pipeline restores into the synchronous loop and continues its history
   byte-for-byte; ``async_collection`` is deterministic, never trains on
   weights older than one generation (hypothesis property over seeds and
   worker counts), and resumes exactly through a checkpoint carrying the
   prefetch round.
4. **Controller lifecycle**: a trace that dies mid-stream cannot leak
   retrain executors (threads joined by the ``finally``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigError
from repro.executors import (
    RetrainPool,
    RolloutExecutor,
    SerialExecutor,
    TaskHandle,
    ThreadExecutor,
    shared_retrain_pool,
)
from repro.neurocuts import NeuroCutsConfig, NeuroCutsTrainer
from repro.nn.checkpoints import load_training_checkpoint, save_checkpoint
from repro.neurocuts.broadcast import (
    WeightBroadcast,
    WeightHandle,
    read_weights,
    resolve_weights,
    shared_memory_available,
)
from repro.serve import (
    LoadAwareRebalancePolicy,
    RetrainController,
    RetrainPolicy,
    ServingConfig,
    TenantRegistry,
    serve_sharded,
)
from repro.rules import Rule
from repro.workloads import (
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


def _history_dicts(result):
    """Iteration stats without the timing field (never reproducible)."""
    return [
        {k: v for k, v in stats.as_dict().items() if k != "wall_time_s"}
        for stats in result.history
    ]


def _fleet_config(**overrides):
    defaults = dict(
        hidden_sizes=(8, 8),
        max_timesteps_total=600,
        timesteps_per_batch=200,
        max_timesteps_per_rollout=100,
        leaf_threshold=8,
        seed=11,
    )
    defaults.update(overrides)
    return NeuroCutsConfig.fast_test_config(**defaults)


def _fresh_rules(ruleset, count, tag="fleet"):
    base = max(r.priority for r in ruleset) + 1
    return [
        Rule.from_prefixes(src_ip=f"198.51.{i}.0/24", priority=base + i,
                           name=f"{tag}{i}")
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# Shared-memory broadcast mechanics
# --------------------------------------------------------------------------- #


@pytest.mark.skipif(not shared_memory_available(),
                    reason="multiprocessing.shared_memory unavailable")
class TestWeightBroadcast:
    def test_publish_read_round_trip_both_slots(self):
        rng = np.random.default_rng(3)
        with WeightBroadcast(capacity=64) as broadcast:
            for generation in range(4):  # exercises slot 0 and slot 1 twice
                flat = rng.standard_normal(64)
                handle = broadcast.publish(flat, generation=generation)
                assert handle.generation == generation
                assert handle.length == 64
                np.testing.assert_array_equal(read_weights(handle), flat)

    def test_short_vector_round_trips_by_length(self):
        with WeightBroadcast(capacity=32) as broadcast:
            flat = np.arange(5, dtype=np.float64)
            handle = broadcast.publish(flat, generation=0)
            np.testing.assert_array_equal(read_weights(handle), flat)

    def test_lapped_handle_raises_instead_of_returning_unknown_weights(self):
        with WeightBroadcast(capacity=8) as broadcast:
            stale = broadcast.publish(np.zeros(8), generation=0)
            # Generation 2 reuses slot 0 (2 % 2 == 0): the staleness bound
            # (at most two live generations) is violated for the old handle.
            broadcast.publish(np.ones(8), generation=2)
            with pytest.raises(RuntimeError, match="staleness"):
                read_weights(stale)

    def test_validation_and_idempotent_close(self):
        with pytest.raises(ValueError):
            WeightBroadcast(capacity=0)
        broadcast = WeightBroadcast(capacity=4)
        with pytest.raises(ValueError):
            broadcast.publish(np.zeros(5), generation=0)
        with pytest.raises(ValueError):
            broadcast.publish(np.zeros(4), generation=-1)
        broadcast.close()
        broadcast.close()

    def test_resolve_weights_passthrough_and_handle(self):
        flat = np.arange(6, dtype=np.float64)
        assert resolve_weights(flat) is flat
        with WeightBroadcast(capacity=6) as broadcast:
            handle = broadcast.publish(flat, generation=1)
            assert isinstance(handle, WeightHandle)
            np.testing.assert_array_equal(resolve_weights(handle), flat)


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
# Async collection: staleness bound, determinism, exact resume
# --------------------------------------------------------------------------- #


class TestAsyncCollection:
    def test_config_rejects_unsupported_lag(self):
        # The lag is structural (one round in flight), not a knob.
        with pytest.raises(TypeError, match="max_weight_lag"):
            _fleet_config(async_collection=True, max_weight_lag=2)
        with pytest.raises(ConfigError, match="rollout_backend"):
            NeuroCutsTrainer(None, _fleet_config(), rollout_backend="thread")

    def test_lag_zero_reproduces_synchronous_history_byte_identically(
            self, small_acl_ruleset, tmp_path):
        """A lag-0 pipeline (an older config) submitted each round after
        its update — the synchronous loop.  Its checkpoints restore into
        that loop and continue the synchronous history exactly."""
        with NeuroCutsTrainer(small_acl_ruleset, _fleet_config()) as sync:
            sync_result = sync.train()
            assert sync.collection_lags == [0] * len(sync_result.history)
        path = tmp_path / "lag0.ckpt"
        with NeuroCutsTrainer(small_acl_ruleset, _fleet_config()) as first:
            first.train(max_iterations=1)
            first.save(path)
            state = load_training_checkpoint(path).trainer_state
            state["config"].update(async_collection=True, max_weight_lag=0,
                                   rollout_backend="process")
            save_checkpoint(first.model, path,
                            optimizer=first.learner.optimizer,
                            trainer_state=state)
        with NeuroCutsTrainer.restore(path, small_acl_ruleset) as resumed:
            assert resumed.config.async_collection is False
            result = resumed.train()
            assert resumed.collection_lags == [0] * len(result.history)
        assert _history_dicts(result) == _history_dicts(sync_result)

    def test_lag_one_pipelines_and_is_deterministic(self, small_acl_ruleset):
        config = _fleet_config(async_collection=True)
        histories = []
        for _ in range(2):
            with NeuroCutsTrainer(small_acl_ruleset, config) as trainer:
                result = trainer.train()
                # First batch is collected cold (lag 0); every later one
                # was submitted on the pre-update snapshot (lag exactly 1).
                assert trainer.collection_lags[0] == 0
                assert trainer.collection_lags[1:] == \
                    [1] * (len(result.history) - 1)
                histories.append(_history_dicts(result))
        assert histories[0] == histories[1]

    def test_split_train_calls_match_one_uninterrupted_run(
            self, small_acl_ruleset):
        config = _fleet_config(async_collection=True)
        with NeuroCutsTrainer(small_acl_ruleset, config) as whole:
            uninterrupted = whole.train()
        with NeuroCutsTrainer(small_acl_ruleset, config) as split:
            split.train(max_iterations=1)
            # The iteration cap left the pipeline primed: its round was
            # drained into the prefetch so the next call continues exactly.
            assert split._prefetch is not None
            resumed = split.train()
        assert _history_dicts(resumed) == _history_dicts(uninterrupted)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=6),
           num_workers=st.sampled_from([1, 2]))
    def test_property_never_trains_on_weights_older_than_one_generation(
            self, small_acl_ruleset, seed, num_workers):
        config = _fleet_config(
            async_collection=True, seed=seed,
            num_rollout_workers=num_workers,
            max_timesteps_total=300, timesteps_per_batch=150,
        )
        with NeuroCutsTrainer(small_acl_ruleset, config,
                              rollout_backend="serial") as trainer:
            result = trainer.train()
            lags = list(trainer.collection_lags)
            assert len(lags) == len(result.history)
            assert all(0 <= lag <= 1 for lag in lags)
            assert lags[0] == 0
            # One weight generation per PPO update, stamped explicitly.
            assert trainer._weight_generation == len(result.history)

    def test_exact_resume_through_async_checkpoint(self, small_acl_ruleset,
                                                   tmp_path):
        config = _fleet_config(async_collection=True)
        with NeuroCutsTrainer(small_acl_ruleset, config) as whole:
            uninterrupted = whole.train()
        path = tmp_path / "async.ckpt"
        with NeuroCutsTrainer(small_acl_ruleset, config) as first:
            first.train(max_iterations=1)
            first.save(path)
            lags_so_far = list(first.collection_lags)
        resumed = NeuroCutsTrainer.restore(path, small_acl_ruleset)
        with resumed:
            # The checkpoint carried the gathered-but-untrained prefetch
            # round plus the generation stamp and lag record.
            assert resumed.config.async_collection is True
            assert resumed._prefetch is not None
            assert resumed.collection_lags == lags_so_far
            final = resumed.train()
        assert _history_dicts(final) == _history_dicts(uninterrupted)
        assert final.timesteps_total == uninterrupted.timesteps_total


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

    def test_mid_trace_exception_does_not_leak_retrain_threads(self):
        """A rebalancing serve_sharded dying mid-stream must close every
        shard's retrain executor (threads joined)."""
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
        # Poison the stream after the churn window: by then each shard's
        # thread-backend retrain executor has started its pool.
        poison = dc.replace(workload.updates[-1], tenant_id="ghost",
                            time=workload.requests[-1].time)
        before = set(threading.enumerate())
        with pytest.raises(KeyError):
            serve_sharded(
                specs, workload.rulesets, workload.requests,
                list(workload.updates) + [poison],
                ServingConfig(
                    workers=2, background_swaps=False,
                    retrain_threshold=threshold,
                    retrain_policy=RetrainPolicy(timesteps=300,
                                                 max_iterations=1,
                                                 backend="thread",
                                                 quality_gate=False),
                    rebalance_policy=LoadAwareRebalancePolicy(),
                    rebalance_interval=0.25,
                ),
            )
        leaked = set(threading.enumerate()) - before
        assert not leaked, f"retrain threads leaked: {leaked}"

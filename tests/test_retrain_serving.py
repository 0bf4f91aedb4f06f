"""Tests for the adaptive serving loop: retrain-on-churn.

Covers the `needs_retraining()` threshold edges, tree adoption with churn
replay, the RetrainController state machine on every executor backend, the
controller's thread lifecycle, and the churn schedules sized to force
retrains.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time

import pytest

from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.executors import EXECUTOR_BACKENDS
from repro.harness import serving
from repro.neurocuts import (
    IncrementalUpdater,
    RetrainRequest,
    default_retrain_config,
    run_retrain,
)
from repro.rules import Rule
from repro.serve import (
    ClassificationService,
    BatchPolicy,
    EngineSlot,
    Request,
    RetrainController,
    RetrainPolicy,
    RuleUpdate,
    ServingConfig,
    TenantRegistry,
)
from repro.tree import validate_classifier
from repro.workloads import (
    ChurnConfig,
    FlowTraceConfig,
    build_workload,
    make_tenant_specs,
)


@pytest.fixture(scope="module")
def small_ruleset():
    return generate_classifier("acl1", 50, seed=7)


def _fresh_rules(ruleset, count, tag="edge"):
    base = max(r.priority for r in ruleset) + 1
    return [
        Rule.from_prefixes(src_ip=f"198.51.{i}.0/24", priority=base + i,
                           name=f"{tag}{i}")
        for i in range(count)
    ]


class TestRetrainThresholdEdges:
    """`needs_retraining()` must fire exactly at the threshold, not around it."""

    def test_updater_fires_exactly_at_threshold(self, small_ruleset):
        tree = HiCutsBuilder(binth=8).build(small_ruleset).trees[0]
        updater = IncrementalUpdater(tree, retrain_threshold=3)
        rules = _fresh_rules(small_ruleset, 3)
        for i, rule in enumerate(rules):
            assert not updater.needs_retraining(), \
                f"fired after {i} updates (threshold 3)"
            updater.add_rule(rule)
        assert updater.needs_retraining()

    def test_adds_and_removes_both_count(self, small_ruleset):
        tree = HiCutsBuilder(binth=8).build(small_ruleset).trees[0]
        updater = IncrementalUpdater(tree, retrain_threshold=2)
        victim = next(r for r in small_ruleset.rules
                      if r.num_wildcard_dims() < 5)
        updater.remove_rule(victim)
        assert not updater.needs_retraining()
        updater.add_rule(_fresh_rules(small_ruleset, 1)[0])
        assert updater.needs_retraining()

    def test_threshold_one_fires_on_first_update(self, small_ruleset):
        classifier = HiCutsBuilder(binth=8).build(small_ruleset)
        slot = EngineSlot("t", classifier, background=False,
                          retrain_threshold=1)
        assert not slot.needs_retraining()
        slot.apply_update(adds=_fresh_rules(small_ruleset, 1))
        assert slot.needs_retraining()

    def test_slot_tracks_threshold_through_registry(self, small_ruleset):
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=4)
        slot = registry.register("a", small_ruleset)
        override = registry.register("b", small_ruleset.with_default_rule(),
                                     retrain_threshold=2)
        assert slot.retrain_threshold == 4
        assert override.retrain_threshold == 2
        rules = _fresh_rules(small_ruleset, 4)
        for rule in rules[:3]:
            registry.apply_update("a", adds=[rule])
        assert not slot.needs_retraining()
        assert slot.updates_since_adoption == 3
        registry.apply_update("a", adds=[rules[3]])
        assert slot.needs_retraining()
        assert registry.telemetry()["a"]["retrain"]["needs_retraining"]


class TestAdoptClassifier:
    def test_adoption_swaps_trees_and_resets_counters(self, small_ruleset):
        classifier = HiCutsBuilder(binth=8).build(small_ruleset)
        slot = EngineSlot("t", classifier, background=False,
                          retrain_threshold=2)
        slot.apply_update(adds=_fresh_rules(small_ruleset, 2))
        assert slot.needs_retraining()
        epoch_before = slot.epoch
        replacement = EffiCutsBuilder(binth=8).build(slot.ruleset)
        slot.adopt_classifier(replacement)
        assert slot.classifier is replacement
        assert slot.epoch == epoch_before + 1
        assert not slot.needs_retraining()
        assert slot.updates_since_adoption == 0
        # The adopted epoch's snapshot is the latest ruleset.
        assert slot.ruleset_at(slot.epoch) == slot.ruleset

    def test_adoption_replays_churn_that_raced_the_retrain(self,
                                                           small_ruleset):
        classifier = HiCutsBuilder(binth=8).build(small_ruleset)
        slot = EngineSlot("t", classifier, background=False)
        base = slot.ruleset  # snapshot a retrain would train against
        replacement = HiCutsBuilder(binth=8).build(base)
        # Churn lands while the "retrain" runs: an add and a remove.
        added = _fresh_rules(small_ruleset, 1, tag="raced")
        victim = next(r for r in base.rules if r.num_wildcard_dims() < 5)
        slot.apply_update(adds=added, removes=[victim])
        slot.adopt_classifier(replacement, base_ruleset=base)
        post = slot.ruleset_at(slot.epoch)
        assert added[0] in post.rules and victim not in post.rules
        # The raced updates count toward the *next* retrain.
        assert slot.updates_since_adoption == 2
        # Differential exactness of the adopted engine on the replayed set.
        rng = random.Random(3)
        packet = post.sample_matching_packet(added[0], rng)
        match = slot.engine().classify(packet)
        assert match is not None and match.priority == added[0].priority
        for packet in post.sample_packets(200, seed=11):
            expected = post.classify(packet)
            actual = slot.engine().classify(packet)
            assert (actual.priority if actual else None) == \
                (expected.priority if expected else None)


class TestRetrainService:
    def test_run_retrain_returns_picklable_response(self, small_ruleset):
        request = RetrainRequest(
            tenant_id="t0",
            ruleset=small_ruleset,
            config=default_retrain_config(timesteps=300, seed=1),
            max_iterations=1,
        )
        response = run_retrain(request)
        assert response.tenant_id == "t0"
        assert response.timesteps_total > 0
        classifier = response.classifier(small_ruleset)
        report = validate_classifier(
            classifier, packets=small_ruleset.sample_packets(150, seed=5))
        assert report.num_packets == 150 and report.num_mismatches == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetrainPolicy(timesteps=0)
        with pytest.raises(ValueError):
            RetrainPolicy(backend="fork")


class TestRetrainController:
    def _registry(self, ruleset, threshold=3):
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=threshold)
        registry.register("t0", ruleset)
        return registry

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_full_cycle(self, small_ruleset, backend):
        registry = self._registry(small_ruleset)
        slot = registry.slot("t0")
        # quality_gate=False: this test exercises the adoption *mechanics*
        # (launch -> install -> counter reset), not the gate's verdict on
        # a short-budget retrain.  The gate has its own tests below.
        policy = RetrainPolicy(timesteps=300, max_iterations=1,
                               backend=backend, quality_gate=False)
        with RetrainController(registry, policy) as controller:
            for rule in _fresh_rules(small_ruleset, 3, tag="cycle"):
                registry.apply_update("t0", adds=[rule])
            assert slot.needs_retraining()
            landed = controller.poll_tenant("t0")
            # A serial retrain runs and lands inside the poll; the pool
            # backends land it at the drain.
            assert landed is True or controller.drain() == ["t0"]
            assert controller.stats.triggered == 1
            assert controller.stats.installed == 1
            assert not slot.needs_retraining()
            post = slot.ruleset_at(slot.epoch)
            for packet in post.sample_packets(150, seed=2):
                expected = post.classify(packet)
                actual = slot.engine().classify(packet)
                assert (actual.priority if actual else None) == \
                    (expected.priority if expected else None)

    def test_thread_backend_drain_lands_inflight_job(self, small_ruleset):
        registry = self._registry(small_ruleset)
        slot = registry.slot("t0")
        policy = RetrainPolicy(timesteps=300, max_iterations=1,
                               backend="thread", quality_gate=False)
        with RetrainController(registry, policy) as controller:
            for rule in _fresh_rules(small_ruleset, 3, tag="bg"):
                registry.apply_update("t0", adds=[rule])
            controller.poll_tenant("t0")
            assert controller.stats.triggered == 1
            landed = controller.drain()
            assert controller.stats.installed == 1 or landed == ["t0"]
            assert not slot.needs_retraining()

    def test_deregistered_tenant_discards_finished_job(self, small_ruleset):
        registry = self._registry(small_ruleset)
        policy = RetrainPolicy(timesteps=300, max_iterations=1,
                               backend="thread")
        with RetrainController(registry, policy) as controller:
            for rule in _fresh_rules(small_ruleset, 3, tag="gone"):
                registry.apply_update("t0", adds=[rule])
            controller.poll_tenant("t0")
            registry.deregister("t0")
            controller.drain()
            assert controller.stats.discarded == 1
            assert controller.stats.installed == 0

    def test_no_retrigger_while_job_in_flight(self, small_ruleset):
        registry = self._registry(small_ruleset)
        policy = RetrainPolicy(timesteps=300, max_iterations=1,
                               backend="thread")
        with RetrainController(registry, policy) as controller:
            for rule in _fresh_rules(small_ruleset, 6, tag="dup"):
                registry.apply_update("t0", adds=[rule])
            controller.poll_tenant("t0")
            # The slot still reports needs_retraining, but the in-flight
            # job must not be duplicated by further polls.
            controller.poll_tenant("t0")
            assert controller.stats.triggered == 1
            controller.drain()


class TestControllerLifecycle:
    """Closing a controller joins its retrain threads, also when the run
    dies mid-trace."""

    def test_close_shuts_down_owned_executor_idempotently(
            self, small_ruleset):
        before = set(threading.enumerate())
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=3)
        registry.register("t0", small_ruleset)
        controller = RetrainController(
            registry, RetrainPolicy(timesteps=300, max_iterations=1,
                                    backend="thread", quality_gate=False))
        for rule in _fresh_rules(small_ruleset, 3, tag="close"):
            registry.apply_update("t0", adds=[rule])
        controller.poll_tenant("t0")
        # The retrain actually started a worker thread.
        assert set(threading.enumerate()) - before
        controller.drain()
        controller.close()
        assert not set(threading.enumerate()) - before
        controller.close()

    def test_mid_trace_exception_does_not_leak_retrain_threads(
            self, monkeypatch):
        """A run dying mid-stream must still close its retrain executor
        (threads joined): ``run_serving`` serves inside ``try/finally``."""
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
        # thread-backend retrain executor has started its worker.
        poison = dataclasses.replace(workload.updates[-1], tenant_id="ghost",
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


class TestRetrainQualityGate:
    """A retrained tree is only adopted when it *strictly beats* the
    incrementally-patched incumbent under the paper's time/space objective.

    The objective function is monkeypatched with a scripted sequence so
    each verdict edge (beat / tie / lose) is exercised deterministically —
    ``_install`` scores the candidate first, then the incumbent.
    """

    @staticmethod
    def _scripted_objective(*values):
        scores = iter(values)
        return lambda stats, coeff: next(scores)

    def _gated_cycle(self, ruleset, monkeypatch, candidate_score,
                     incumbent_score):
        import repro.serve.controller as controller_module

        # The controller scores the incumbent at launch (the snapshot the
        # gate compares against) and the candidate at install, in that order.
        monkeypatch.setattr(
            controller_module, "classifier_objective",
            self._scripted_objective(incumbent_score, candidate_score))
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=3)
        slot = registry.register("t0", ruleset)
        policy = RetrainPolicy(timesteps=300, max_iterations=1,
                               backend="serial")
        controller = RetrainController(registry, policy)
        for rule in _fresh_rules(ruleset, 3, tag="gate"):
            registry.apply_update("t0", adds=[rule])
        landed = controller.poll_tenant("t0")
        controller.close()
        return registry, slot, controller, landed

    def test_strictly_better_candidate_is_adopted(self, small_ruleset,
                                                  monkeypatch):
        registry, slot, controller, landed = self._gated_cycle(
            small_ruleset, monkeypatch,
            candidate_score=0.5, incumbent_score=1.0)
        assert landed is True
        assert controller.stats.installed == 1
        assert controller.stats.rejected == 0
        # 3 update swaps + 1 adoption swap.
        assert slot.swap_stats.swaps == 4
        assert registry.metrics.counter("serve.retrains_rejected").value == 0

    def test_tie_is_rejected(self, small_ruleset, monkeypatch):
        """A tie means the retrain bought nothing: keep the incumbent."""
        registry, slot, controller, landed = self._gated_cycle(
            small_ruleset, monkeypatch,
            candidate_score=1.0, incumbent_score=1.0)
        assert landed is False
        assert controller.stats.installed == 0
        assert controller.stats.rejected == 1
        # No adoption swap: only the 3 update swaps happened.
        assert slot.swap_stats.swaps == 3
        assert registry.metrics.counter("serve.retrains_rejected").value == 1

    def test_worse_candidate_is_rejected_and_incumbent_serves(
            self, small_ruleset, monkeypatch):
        registry, slot, controller, landed = self._gated_cycle(
            small_ruleset, monkeypatch,
            candidate_score=2.0, incumbent_score=1.0)
        assert landed is False
        assert controller.stats.rejected == 1
        epoch = slot.epoch
        # The incumbent still answers exactly for its latest ruleset.
        post = slot.ruleset_at(epoch)
        for packet in post.sample_packets(100, seed=13):
            expected = post.classify(packet)
            actual = slot.engine().classify(packet)
            assert (actual.priority if actual else None) == \
                (expected.priority if expected else None)

    def test_rejection_resets_drift_and_does_not_relaunch(self,
                                                          small_ruleset,
                                                          monkeypatch):
        """note_retrain_rejected() spends the trigger evidence: the very
        next poll must not relaunch against the refuted counters."""
        registry, slot, controller, landed = self._gated_cycle(
            small_ruleset, monkeypatch,
            candidate_score=2.0, incumbent_score=1.0)
        assert landed is False
        assert not slot.needs_retraining()
        assert slot.updates_since_adoption == 0
        assert controller.poll_tenant("t0") is False
        assert controller.stats.triggered == 1
        # Fresh drift re-arms the loop as usual.
        for rule in _fresh_rules(small_ruleset, 3, tag="rearm"):
            registry.apply_update("t0", adds=[rule])
        assert slot.needs_retraining()

    def test_objective_matches_cost_model(self, small_ruleset):
        from repro.serve.controller import classifier_objective

        classifier = HiCutsBuilder(binth=8).build(small_ruleset)
        stats = classifier.stats()
        assert classifier_objective(stats, 1.0) == \
            pytest.approx(stats.classification_time)
        assert classifier_objective(stats, 0.0) == \
            pytest.approx(stats.bytes_per_rule)
        assert classifier_objective(stats, 0.5) == pytest.approx(
            0.5 * stats.classification_time + 0.5 * stats.bytes_per_rule)

    def test_serve_report_swap_invariant_after_rejection(self, monkeypatch):
        """End to end: every rejection is counted, nothing swaps for it,
        and ``swaps == num_updates + retrains_installed`` still holds."""
        import repro.serve.controller as controller_module

        calls = {"n": 0}

        def losing_objective(stats, coeff):
            # Incumbent scored first (at launch, odd calls); the candidate
            # (scored at install, even calls) always loses to it.
            calls["n"] += 1
            return 1.0 if calls["n"] % 2 == 1 else 2.0

        monkeypatch.setattr(controller_module, "classifier_objective",
                            losing_objective)
        threshold = 4
        specs = make_tenant_specs(1, families=("acl1",), num_rules=40,
                                  seed=8)
        churn = ChurnConfig.forcing_retrain(threshold, num_tenants=1,
                                            adds_per_event=2,
                                            removes_per_event=0)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=1200, num_flows=100, seed=8),
            churn=churn,
        )
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=threshold)
        registry.register(specs[0].tenant_id,
                          workload.rulesets[specs[0].tenant_id])
        controller = RetrainController(
            registry,
            RetrainPolicy(timesteps=300, max_iterations=1, backend="serial"),
        )
        service = ClassificationService(
            registry, BatchPolicy(max_batch=32), record_batches=True,
            retrain_controller=controller,
        )
        report = service.serve(workload.requests, updates=workload.updates)
        controller.close()
        assert report.retrains_triggered >= 1
        assert report.retrains_rejected == report.retrains_triggered
        assert report.retrains_installed == 0
        assert report.swaps == report.num_updates + report.retrains_installed
        # Decisions stay exact: the incumbent kept serving every epoch.
        slot = registry.slot(specs[0].tenant_id)
        mismatches = 0
        for batch in report.batches:
            ruleset = slot.ruleset_at(batch.epoch)
            for request, priority in zip(batch.requests, batch.priorities):
                expected = ruleset.classify(request.packet)
                if (expected.priority if expected else None) != priority:
                    mismatches += 1
        assert mismatches == 0


class TestForcingRetrainChurn:
    def test_schedule_arithmetic(self):
        churn = ChurnConfig.forcing_retrain(12, num_tenants=3,
                                            adds_per_event=4,
                                            removes_per_event=2)
        # ceil(12 / 6) = 2 events per tenant, 3 tenants.
        assert churn.num_events == 6
        assert churn.adds_per_event == 4 and churn.removes_per_event == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChurnConfig.forcing_retrain(0, num_tenants=1)
        with pytest.raises(ValueError):
            ChurnConfig.forcing_retrain(5, num_tenants=0)
        with pytest.raises(ValueError):
            ChurnConfig.forcing_retrain(5, num_tenants=1, adds_per_event=0,
                                        removes_per_event=0)

    def test_schedule_actually_crosses_threshold(self):
        threshold = 6
        specs = make_tenant_specs(2, families=("acl1",), num_rules=40, seed=3)
        churn = ChurnConfig.forcing_retrain(threshold, num_tenants=2,
                                            adds_per_event=2,
                                            removes_per_event=1)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=400, num_flows=60, seed=3),
            churn=churn,
        )
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=threshold)
        for spec in specs:
            registry.register(spec.tenant_id,
                              workload.rulesets[spec.tenant_id])
        for update in workload.updates:
            registry.apply_update(update.tenant_id, adds=update.adds,
                                  removes=update.removes)
        for spec in specs:
            assert registry.slot(spec.tenant_id).needs_retraining(), \
                f"{spec.tenant_id} never crossed the retrain threshold"


class TestHiCutsFwWarning:
    def test_warns_on_large_fw_hicuts(self):
        from repro.harness.serving import warn_if_hicuts_on_fw

        with pytest.warns(RuntimeWarning, match="EffiCuts"):
            message = warn_if_hicuts_on_fw(("acl1", "fw1"), "HiCuts", 500)
        assert message is not None and "fw1" in message

    def test_silent_when_safe(self):
        import warnings

        from repro.harness.serving import warn_if_hicuts_on_fw

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_if_hicuts_on_fw(("fw1",), "EffiCuts", 500) is None
            assert warn_if_hicuts_on_fw(("acl1",), "HiCuts", 500) is None
            assert warn_if_hicuts_on_fw(("fw1",), "HiCuts", 150) is None


class TestServiceRetrainIntegration:
    def test_serve_triggers_and_installs_retrain(self):
        threshold = 4
        specs = make_tenant_specs(1, families=("acl1",), num_rules=40,
                                  seed=8)
        churn = ChurnConfig.forcing_retrain(threshold, num_tenants=1,
                                            adds_per_event=2,
                                            removes_per_event=0)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=1200, num_flows=100, seed=8),
            churn=churn,
        )
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=threshold)
        registry.register(specs[0].tenant_id,
                          workload.rulesets[specs[0].tenant_id])
        controller = RetrainController(
            registry,
            RetrainPolicy(timesteps=300, max_iterations=1, backend="serial",
                          quality_gate=False),
        )
        service = ClassificationService(
            registry, BatchPolicy(max_batch=32), record_batches=True,
            retrain_controller=controller,
        )
        report = service.serve(workload.requests, updates=workload.updates)
        controller.close()
        assert report.retrains_triggered >= 1
        assert report.retrains_installed == report.retrains_triggered
        assert report.retrains_rejected == 0
        assert report.num_requests == len(workload.requests)
        # Exactness across the retrain adoption.
        slot = registry.slot(specs[0].tenant_id)
        mismatches = 0
        for batch in report.batches:
            ruleset = slot.ruleset_at(batch.epoch)
            for request, priority in zip(batch.requests, batch.priorities):
                expected = ruleset.classify(request.packet)
                if (expected.priority if expected else None) != priority:
                    mismatches += 1
        assert mismatches == 0

    def test_wall_clock_stops_before_the_retrain_drain(self, small_ruleset,
                                                        monkeypatch):
        """``pps`` measures serving: the end-of-trace wait for in-flight
        retrains is not part of ``wall_seconds``."""
        registry = TenantRegistry(background_swaps=False)
        registry.register("t0", small_ruleset)
        drained = []

        def slow_drain():
            time.sleep(0.3)
            drained.append(True)
            return []

        with RetrainController(registry, RetrainPolicy(
                timesteps=300, max_iterations=1,
                backend="serial")) as controller:
            monkeypatch.setattr(controller, "drain", slow_drain)
            service = ClassificationService(registry,
                                            retrain_controller=controller)
            packets = small_ruleset.sample_packets(200, seed=3)
            report = service.serve([Request("t0", packet, time=i * 1e-4)
                                    for i, packet in enumerate(packets)])
        assert drained and report.num_requests == 200
        assert report.wall_seconds < 0.3

    def test_wall_clock_leaves_out_serial_retrain_training(
            self, small_ruleset, monkeypatch):
        """A serial retrain trains inside the launch, on the serving
        thread; that training is not serving, so ``wall_seconds`` leaves it
        out as it leaves out the end-of-trace drain."""
        import repro.serve.controller as controller_module

        def slow_retrain(request):
            time.sleep(0.3)
            return run_retrain(request)

        monkeypatch.setattr(controller_module, "run_retrain", slow_retrain)
        registry = TenantRegistry(background_swaps=False,
                                  default_retrain_threshold=2)
        registry.register("t0", small_ruleset)
        packets = small_ruleset.sample_packets(200, seed=3)
        updates = [RuleUpdate("t0", time=0.005, adds=(rule,))
                   for rule in _fresh_rules(small_ruleset, 2, tag="wall")]
        with RetrainController(registry, RetrainPolicy(
                timesteps=300, max_iterations=1,
                backend="serial")) as controller:
            service = ClassificationService(registry,
                                            retrain_controller=controller)
            report = service.serve([Request("t0", packet, time=i * 1e-4)
                                    for i, packet in enumerate(packets)],
                                   updates=updates)
        assert report.retrains_triggered == 1
        assert report.num_requests == 200
        assert report.wall_seconds < 0.3
        assert controller.launch_seconds >= 0.3

"""Tests for load-aware shard rebalancing and live tenant migration.

Three layers, mirroring the subsystem's contracts:

1. **Policy properties** (hypothesis): a rebalance plan is a pure function
   of its telemetry snapshot, plans are conservative (only real tenants,
   only real shards, bounded move count), every move strictly decreases
   the descending-sorted shard-load vector (the no-oscillation /
   termination potential), and balanced placements yield empty plans.
2. **Migration mechanics**: registry export/import round-trips a slot
   through pickle (epoch history, retrain counters, warm flow cache), and
   the telemetry snapshot path stays consistent under concurrent adopts.
3. **Differential determinism**: the golden 4-tenant trace replays
   single-process, statically sharded, and with forced mid-trace
   migrations — identical decisions (bit-exact against the golden column)
   and identical deterministic counters, modulo the migration counters
   themselves.
"""

from __future__ import annotations

import pickle
import threading
from pathlib import Path
from typing import Dict, Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import HiCutsBuilder
from repro.classbench import generate_classifier
from repro.obs.metrics import MetricsRegistry
from repro.rules import Rule
from repro.serve import (
    EngineSlot,
    LoadAwareRebalancePolicy,
    MigrationPlan,
    NoRebalancePolicy,
    RetrainController,
    RetrainPolicy,
    ScheduledRebalancePolicy,
    ServingConfig,
    ShardTelemetry,
    TelemetrySnapshot,
    TenantLoad,
    TenantMigration,
    TenantRegistry,
    UnknownTenantError,
    make_rebalance_policy,
    serve_sharded,
)
from repro.traces import read_trace, replay_trace
from repro.workloads import FlowTraceConfig, build_workload, make_tenant_specs

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_REBALANCE = DATA_DIR / "acl1_rebalance.trace"


# --------------------------------------------------------------------------- #
# Snapshot helpers + strategies
# --------------------------------------------------------------------------- #


def make_snapshot(placements: Mapping[str, int], requests: Mapping[str, int],
                  num_shards: int, interval: int = 1,
                  time: float = 0.0) -> TelemetrySnapshot:
    """Build a snapshot directly from placement + per-tenant request maps."""
    by_shard: Dict[int, list] = {i: [] for i in range(num_shards)}
    for tenant_id in sorted(placements):
        by_shard[placements[tenant_id]].append(
            TenantLoad(tenant_id=tenant_id, requests=requests[tenant_id]))
    return TelemetrySnapshot(
        interval=interval, time=time,
        shards=tuple(
            ShardTelemetry(shard_index=i, tenants=tuple(by_shard[i]))
            for i in range(num_shards)
        ),
    )


def apply_plan(placements: Dict[str, int], plan: MigrationPlan
               ) -> Dict[str, int]:
    updated = dict(placements)
    for move in plan.migrations:
        assert updated[move.tenant_id] == move.source_shard
        updated[move.tenant_id] = move.target_shard
    return updated


def shard_loads(placements: Mapping[str, int], requests: Mapping[str, int],
                num_shards: int) -> Dict[int, int]:
    loads = {i: 0 for i in range(num_shards)}
    for tenant_id, shard in placements.items():
        loads[shard] += requests[tenant_id]
    return loads


@st.composite
def telemetry_cases(draw):
    """(placements, requests, num_shards): arbitrary small clusters."""
    num_shards = draw(st.integers(min_value=2, max_value=3))
    num_tenants = draw(st.integers(min_value=0, max_value=6))
    placements = {}
    requests = {}
    for i in range(num_tenants):
        tenant_id = f"t{i:02d}"
        placements[tenant_id] = draw(
            st.integers(min_value=0, max_value=num_shards - 1))
        requests[tenant_id] = draw(st.integers(min_value=0, max_value=500))
    return placements, requests, num_shards


POLICIES = [
    LoadAwareRebalancePolicy(),
    LoadAwareRebalancePolicy(imbalance_ratio=1.0, max_migrations_per_cycle=3),
    LoadAwareRebalancePolicy(imbalance_ratio=1.5),
]


class TestLoadAwarePolicyProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=telemetry_cases())
    def test_plan_is_pure_function_of_snapshot(self, case):
        placements, requests, num_shards = case
        snapshot = make_snapshot(placements, requests, num_shards)
        for policy in POLICIES:
            first = policy.plan(snapshot)
            second = policy.plan(snapshot)
            assert first == second
            # A structurally equal snapshot gives the same plan too.
            again = policy.plan(
                make_snapshot(placements, requests, num_shards))
            assert first == again

    @settings(max_examples=200, deadline=None)
    @given(case=telemetry_cases())
    # Three moves allowed, three near-equal heavy tenants: the second
    # policy used to plan t03 1->2, t01 0->2, then t03 again, 2->0.
    @example(case=({"t00": 0, "t01": 0, "t02": 1, "t03": 1, "t04": 1},
                   {"t00": 316, "t01": 317, "t02": 4, "t03": 315,
                    "t04": 315}, 3))
    def test_plans_are_conservative(self, case):
        """Moves only name real tenants on their actual shard, target real
        shards, never no-op, and respect the per-cycle bound."""
        placements, requests, num_shards = case
        snapshot = make_snapshot(placements, requests, num_shards)
        for policy in POLICIES:
            plan = policy.plan(snapshot)
            assert plan.interval == snapshot.interval
            assert len(plan.migrations) <= policy.max_migrations_per_cycle
            seen = set()
            for move in plan.migrations:
                assert move.tenant_id in placements
                assert move.source_shard != move.target_shard
                assert 0 <= move.target_shard < num_shards
                assert move.tenant_id not in seen, \
                    "a tenant may move at most once per plan"
                seen.add(move.tenant_id)
            # The first (or only) move always starts from the live
            # placement; later moves chain within the plan.
            if plan.migrations:
                first = plan.migrations[0]
                assert placements[first.tenant_id] == first.source_shard

    @settings(max_examples=200, deadline=None)
    @given(case=telemetry_cases())
    def test_moves_strictly_decrease_the_load_potential(self, case):
        """Every nonempty plan strictly lowers the descending-sorted shard
        load vector (lexicographically) and never raises the max load —
        the potential argument behind termination and no-oscillation."""
        placements, requests, num_shards = case
        for policy in POLICIES:
            snapshot = make_snapshot(placements, requests, num_shards)
            plan = policy.plan(snapshot)
            if not plan:
                continue
            before = shard_loads(placements, requests, num_shards)
            after = shard_loads(apply_plan(placements, plan), requests,
                                num_shards)
            before_sorted = sorted(before.values(), reverse=True)
            after_sorted = sorted(after.values(), reverse=True)
            assert max(after.values()) <= max(before.values())
            assert after_sorted < before_sorted

    @settings(max_examples=150, deadline=None)
    @given(case=telemetry_cases())
    def test_no_oscillation_and_termination(self, case):
        """Iterating plan -> apply -> re-snapshot on unchanged per-tenant
        load reaches a fixed point (empty plan) and never reverses the
        previous plan's move."""
        placements, requests, num_shards = case
        for policy in POLICIES:
            current = dict(placements)
            previous_moves = ()
            # num_shards ** num_tenants is a crude placement-count bound;
            # the strictly-decreasing potential guarantees far fewer steps.
            for step in range(num_shards ** max(len(placements), 1) + 1):
                snapshot = make_snapshot(current, requests, num_shards,
                                         interval=step + 1)
                plan = policy.plan(snapshot)
                if not plan:
                    break
                for move in plan.migrations:
                    for prev in previous_moves:
                        assert not (
                            move.tenant_id == prev.tenant_id
                            and move.target_shard == prev.source_shard
                            and move.source_shard == prev.target_shard
                        ), f"step {step} bounced {move.tenant_id} back"
                current = apply_plan(current, plan)
                previous_moves = plan.migrations
            else:
                pytest.fail("policy never reached a fixed point")
            # And the fixed point really is fixed.
            snapshot = make_snapshot(current, requests, num_shards)
            assert not policy.plan(snapshot)

    @settings(max_examples=100, deadline=None)
    @given(
        num_shards=st.integers(min_value=2, max_value=4),
        per_shard=st.integers(min_value=0, max_value=300),
        interval=st.integers(min_value=1, max_value=5),
    )
    def test_balanced_placement_yields_empty_plan(self, num_shards,
                                                  per_shard, interval):
        placements = {f"t{i}": i for i in range(num_shards)}
        requests = {f"t{i}": per_shard for i in range(num_shards)}
        snapshot = make_snapshot(placements, requests, num_shards,
                                 interval=interval)
        for policy in POLICIES:
            assert not policy.plan(snapshot)

    def test_single_shard_is_never_rebalanced(self):
        snapshot = make_snapshot({"a": 0, "b": 0}, {"a": 100, "b": 1}, 1)
        assert not LoadAwareRebalancePolicy().plan(snapshot)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadAwareRebalancePolicy(imbalance_ratio=0.9)
        with pytest.raises(ValueError):
            LoadAwareRebalancePolicy(max_migrations_per_cycle=0)

    def test_hot_tenant_moves_to_cold_shard(self):
        """The canonical flash-crowd shape: one tenant dwarfs the rest."""
        placements = {"crowd": 0, "small": 0, "other": 1}
        requests = {"crowd": 900, "small": 50, "other": 60}
        plan = LoadAwareRebalancePolicy().plan(
            make_snapshot(placements, requests, 2))
        # Moving the crowd itself would leave shard 1 at 960 > 950: not an
        # improvement.  The policy moves the largest tenant that helps.
        assert plan.migrations == (TenantMigration(
            tenant_id="small", source_shard=0, target_shard=1),)


class TestTelemetrySnapshotCapture:
    def test_requests_sum_across_registries_and_follow_placement(self):
        """A migrated tenant's pre-migration samples (left in the source
        registry) are attributed to its *current* shard."""
        source, target = MetricsRegistry(), MetricsRegistry()
        source.counter("serve.tenant_requests.a").inc(50)
        target.counter("serve.tenant_requests.a").inc(8)
        source.counter("serve.tenant_requests.b").inc(7)
        snapshot = TelemetrySnapshot.capture(
            interval=1, time=0.25,
            placements={"a": 1, "b": 0},
            registries=[source, target],
        )
        assert snapshot.interval == 1 and snapshot.time == 0.25
        loads = {t.tenant_id: t.requests
                 for shard in snapshot.shards for t in shard.tenants}
        assert loads == {"a": 58, "b": 7}
        assert snapshot.placement() == {"a": 1, "b": 0}
        assert snapshot.shard_loads() == {0: 7, 1: 58}

    def test_queue_wait_goodput_and_depth_flow_through(self):
        reg0, reg1 = MetricsRegistry(), MetricsRegistry()
        reg0.counter("serve.tenant_requests.a").inc(3)
        for value in (0.001, 0.002, 0.004):
            reg0.timing("serve.queue_wait_seconds").observe(value)
        snapshot = TelemetrySnapshot.capture(
            interval=2, time=1.0,
            placements={"a": 0},
            registries=[reg0, reg1],
            queue_depths={"a": 5},
            goodput={"a": 1234.5},
        )
        shard0 = snapshot.shards[0]
        assert shard0.queue_wait_p99 == pytest.approx(
            reg0.timing("serve.queue_wait_seconds").percentile(99.0))
        assert shard0.queue_wait_p99 > 0.0
        (tenant,) = shard0.tenants
        assert tenant.queue_depth == 5
        assert tenant.goodput_pps == pytest.approx(1234.5)
        # Shard 1 served nothing: empty, zero percentile.
        assert snapshot.shards[1].tenants == ()
        assert snapshot.shards[1].queue_wait_p99 == 0.0


class TestScheduledPolicy:
    def _snapshot(self, interval):
        return make_snapshot({"a": 0, "b": 1}, {"a": 10, "b": 20}, 2,
                             interval=interval)

    def test_fires_only_at_its_interval(self):
        policy = ScheduledRebalancePolicy(moves=((2, "a", 1),))
        assert not policy.plan(self._snapshot(1))
        plan = policy.plan(self._snapshot(2))
        assert plan.migrations == (TenantMigration(
            tenant_id="a", source_shard=0, target_shard=1),)
        assert not policy.plan(self._snapshot(3))

    def test_skips_satisfied_unknown_and_out_of_range_moves(self):
        policy = ScheduledRebalancePolicy(moves=(
            (1, "b", 1),    # already on shard 1
            (1, "ghost", 0),  # never registered
            (1, "a", 9),    # no such shard
        ))
        assert not policy.plan(self._snapshot(1))

    def test_is_pure(self):
        policy = ScheduledRebalancePolicy(moves=((1, "a", 1),))
        assert policy.plan(self._snapshot(1)) == policy.plan(self._snapshot(1))


class TestPolicyRegistry:
    def test_make_by_name(self):
        assert isinstance(make_rebalance_policy("none"), NoRebalancePolicy)
        assert isinstance(make_rebalance_policy("load"),
                          LoadAwareRebalancePolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown rebalance policy"):
            make_rebalance_policy("zigzag")


# --------------------------------------------------------------------------- #
# Migration mechanics
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def migration_ruleset():
    return generate_classifier("acl1", 40, seed=5)


def _fresh_rules(ruleset, count, tag="mig"):
    base = max(r.priority for r in ruleset) + 1
    return [
        Rule.from_prefixes(src_ip=f"203.0.{i}.0/24", priority=base + i,
                           name=f"{tag}{i}")
        for i in range(count)
    ]


class TestSlotMigration:
    def test_export_import_round_trips_through_pickle(self,
                                                      migration_ruleset):
        source = TenantRegistry(background_swaps=False)
        slot = source.register("t0", migration_ruleset)
        # Build some epoch history + pending retrain evidence to ship.
        for rule in _fresh_rules(migration_ruleset, 2):
            source.apply_update("t0", adds=[rule])
        epoch = slot.epoch
        updates = slot.updates_since_adoption
        ruleset = slot.ruleset

        state = source.export_slot("t0")
        assert "t0" not in source
        assert source.metrics.counter("serve.migrations_out").value == 1
        # The shippability contract: state crosses a process boundary.
        state = pickle.loads(pickle.dumps(state))

        target = TenantRegistry(background_swaps=False)
        imported = target.import_slot(state)
        assert target.metrics.counter("serve.migrations_in").value == 1
        assert imported.epoch == epoch
        assert imported.updates_since_adoption == updates
        assert imported.ruleset == ruleset
        # Epoch history survives: every recorded epoch still resolves.
        for past in range(epoch + 1):
            assert imported.ruleset_at(past) is not None
        # And the engine still answers exactly for the live ruleset.
        for packet in ruleset.sample_packets(150, seed=9):
            expected = ruleset.classify(packet)
            actual = imported.engine().classify(packet)
            assert (actual.priority if actual else None) == \
                (expected.priority if expected else None)

    def test_export_unknown_tenant_raises(self):
        registry = TenantRegistry(background_swaps=False)
        with pytest.raises(UnknownTenantError):
            registry.export_slot("nope")

    def test_import_duplicate_tenant_raises(self, migration_ruleset):
        source = TenantRegistry(background_swaps=False)
        source.register("t0", migration_ruleset)
        state = source.export_slot("t0")
        target = TenantRegistry(background_swaps=False)
        target.register("t0", migration_ruleset)
        with pytest.raises(ValueError, match="already registered"):
            target.import_slot(state)


class TestTelemetrySnapshotRace:
    def test_snapshot_retries_when_adoption_lands_mid_read(
            self, migration_ruleset, monkeypatch):
        """A swap landing between the epoch read and the counter reads must
        not produce a torn entry; the snapshot retries and reports the
        post-adopt state."""
        registry = TenantRegistry(background_swaps=False)
        slot = registry.register("t0", migration_ruleset)
        replacement = HiCutsBuilder(binth=8).build(slot.ruleset)
        original = EngineSlot.cache_stats
        fired = {"done": False}

        def racing_cache_stats(self):
            if not fired["done"]:
                fired["done"] = True
                self.adopt_classifier(replacement)
            return original(self)

        monkeypatch.setattr(EngineSlot, "cache_stats", racing_cache_stats)
        entry = registry.telemetry()["t0"]
        assert fired["done"]
        assert entry["epoch"] == slot.epoch == 1
        assert entry["rules"] == len(replacement.ruleset)
        assert entry["retrain"]["accumulated_updates"] == 0

    def test_concurrent_adoptions_never_tear_the_snapshot(
            self, migration_ruleset):
        """Thread hammer: the (epoch, rules) pair read by telemetry() must
        always correspond to one adoption generation, never a mix."""
        from repro.rules import RuleSet

        small = migration_ruleset
        big = RuleSet(list(small.rules)
                      + _fresh_rules(small, 3, tag="hammer"),
                      name="hammer")
        registry = TenantRegistry(background_swaps=False)
        slot = registry.register("t0", small)
        classifiers = [HiCutsBuilder(binth=8).build(small),
                       HiCutsBuilder(binth=8).build(big)]
        # Adoption i produces epoch i+1 serving classifiers[i % 2].  An
        # adopted classifier takes over the slot's *current* ruleset (no
        # rule update happens here), so every epoch reports len(small); the
        # table is complete before the adopter starts, so no read is skipped.
        expected = {epoch: len(small) for epoch in range(61)}
        stop = threading.Event()

        def adopter():
            for i in range(60):
                slot.adopt_classifier(classifiers[i % 2])
            stop.set()

        torn = []
        thread = threading.Thread(target=adopter)
        thread.start()
        while not stop.is_set():
            entry = registry.telemetry()["t0"]
            want = expected.get(entry["epoch"])
            if want is not None and entry["rules"] != want:
                torn.append((entry["epoch"], entry["rules"], want))
        thread.join()
        assert torn == [], f"torn telemetry reads: {torn[:5]}"


# --------------------------------------------------------------------------- #
# Differential determinism on the golden trace
# --------------------------------------------------------------------------- #


MIGRATION_KEYS = {"migrations", "rebalance_plans", "rebalance_deferred"}


def _stable_counters(report):
    counters = dict(report.deterministic_counters())
    migration = {key: counters.pop(key) for key in MIGRATION_KEYS}
    return counters, migration


@pytest.fixture(scope="module")
def rebalance_trace():
    return read_trace(GOLDEN_REBALANCE)


def _two_serial_shards(**fields):
    """A replay config (synchronous swaps) over two logical shards."""
    return ServingConfig(workers=2, background_swaps=False, **fields)


class TestThreeWayDifferential:
    """The same golden trace, served three ways, must agree bit-for-bit."""

    @pytest.fixture(scope="class")
    def outcomes(self, rebalance_trace):
        tenants = sorted(rebalance_trace.rulesets)
        # Round-robin start: tenants[0]/tenants[2] on shard 0, the rest on
        # shard 1.  Force two migrations at the first two evaluations.
        forced = ScheduledRebalancePolicy(moves=(
            (1, tenants[0], 1),
            (2, tenants[1], 0),
        ))
        single = replay_trace(rebalance_trace)
        static = replay_trace(rebalance_trace, _two_serial_shards())
        rebalanced = replay_trace(rebalance_trace, _two_serial_shards(
            rebalance_policy=forced, rebalance_interval=0.01))
        return single, static, rebalanced

    def test_all_three_replays_match_the_golden_column(self, outcomes):
        for label, outcome in zip(("single", "static", "rebalanced"),
                                  outcomes):
            assert outcome.report.is_exact, \
                f"{label}: {outcome.report.mismatches[:3]}"
            assert outcome.report.num_dropped == 0
            assert outcome.report.num_duplicates == 0

    def test_migrations_actually_happened(self, outcomes):
        _, static, rebalanced = outcomes
        assert static.result.report.migrations == 0
        assert rebalanced.result.report.migrations >= 1
        assert rebalanced.result.report.rebalance_plans >= 2

    def test_deterministic_counters_identical_across_placements(self,
                                                                outcomes):
        single, static, rebalanced = outcomes
        single_counters, single_migration = \
            _stable_counters(single.result.report)
        static_counters, _ = _stable_counters(static.result.report)
        rebalanced_counters, _ = _stable_counters(rebalanced.result.report)
        assert single_migration == {"migrations": 0, "rebalance_plans": 0,
                                    "rebalance_deferred": 0}
        assert static_counters == single_counters
        assert rebalanced_counters == single_counters

    def test_rebalanced_replay_is_deterministic_across_runs(
            self, rebalance_trace, outcomes):
        _, _, rebalanced = outcomes
        tenants = sorted(rebalance_trace.rulesets)
        again = replay_trace(rebalance_trace, _two_serial_shards(
            rebalance_policy=ScheduledRebalancePolicy(moves=(
                (1, tenants[0], 1),
                (2, tenants[1], 0),
            )),
            rebalance_interval=0.01))
        assert again.report.is_exact
        # Full equality including the migration counters this time.
        assert again.result.report.deterministic_counters() == \
            rebalanced.result.report.deterministic_counters()


class TestLoadPolicyEndToEnd:
    def test_load_policy_replay_stays_exact(self, rebalance_trace):
        """The load-aware policy on the golden trace: whatever it decides,
        decisions must stay golden and nothing may drop."""
        outcome = replay_trace(rebalance_trace, _two_serial_shards(
            rebalance_policy=LoadAwareRebalancePolicy(),
            rebalance_interval=0.01))
        assert outcome.report.is_exact, outcome.report.mismatches[:3]
        assert outcome.report.num_dropped == 0
        counters, _ = _stable_counters(outcome.result.report)
        single_counters, _ = \
            _stable_counters(replay_trace(rebalance_trace).result.report)
        assert counters == single_counters


# --------------------------------------------------------------------------- #
# Retrain/migration interference: deferred, never dropped
# --------------------------------------------------------------------------- #


def _sticky_controller(holds):
    """A controller whose ``retrain_in_flight`` stays True for the first
    ``holds[tenant]`` polls — a deterministic stand-in for a training job
    that outlasts several batch boundaries."""
    state = dict(holds)

    class StickyRetrainController(RetrainController):
        def retrain_in_flight(self, tenant_id):
            remaining = state.get(tenant_id, 0)
            if remaining > 0:
                state[tenant_id] = remaining - 1
                return True
            return super().retrain_in_flight(tenant_id)

    return StickyRetrainController, state


class TestDeferredMigration:
    """A rebalance plan targeting a mid-retrain slot is pending-until-
    settled: retried at later events (or the end-of-trace quiesce point),
    counted in ``rebalance_deferred``, and never lost."""

    THRESHOLD = 10_000  # no organic retrains: the sticky stub is in charge

    def _run(self, monkeypatch, mover_holds=0):
        """Serve a 2-tenant trace on 2 shards with one scheduled move of
        the first tenant (shard 0 -> 1); ``mover_holds`` settle attempts
        are blocked by the scripted in-flight retrain."""
        import repro.serve.stack as stack_module

        specs = make_tenant_specs(2, families=("acl1",), num_rules=40,
                                  seed=9)
        mover = specs[0].tenant_id  # round-robin start: shard 0
        sticky, state = _sticky_controller({mover: mover_holds})
        monkeypatch.setattr(stack_module, "RetrainController", sticky)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=1200, num_flows=100, seed=9))
        outcomes, merged, _ = serve_sharded(
            specs, workload.rulesets, workload.requests, workload.updates,
            ServingConfig(
                workers=2, background_swaps=False,
                retrain_threshold=self.THRESHOLD,
                retrain_policy=RetrainPolicy(timesteps=300, max_iterations=1,
                                             backend="serial"),
                rebalance_policy=ScheduledRebalancePolicy(
                    moves=((1, mover, 1),)),
                # the trace spans ~0.024s of trace clock
                rebalance_interval=0.002,
            ),
        )
        return outcomes, merged, mover, state

    def test_baseline_without_interference_migrates_immediately(
            self, monkeypatch):
        outcomes, merged, mover, _ = self._run(monkeypatch)
        assert merged.migrations == 1
        assert merged.rebalance_deferred == 0
        shard1 = next(o for o in outcomes if o.shard_index == 1)
        assert mover in shard1.tenant_ids

    def test_mid_retrain_move_defers_once_then_executes(self, monkeypatch):
        outcomes, merged, mover, state = self._run(monkeypatch,
                                                   mover_holds=3)
        # All three blocked settle attempts were consumed...
        assert state[mover] == 0
        # ...but the episode is counted once, and the plan was never lost:
        # the move executed at a later event of the same trace.
        assert merged.rebalance_deferred == 1
        assert merged.migrations == 1
        shard1 = next(o for o in outcomes if o.shard_index == 1)
        assert mover in shard1.tenant_ids

    def test_retrain_outlasting_trace_settles_at_quiesce_point(
            self, monkeypatch):
        """No plan is ever lost: a retrain still 'running' when the trace
        ends defers the move all the way to the end-of-trace settlement,
        which executes it after finish() quiesced the shard."""
        outcomes, merged, mover, _ = self._run(monkeypatch,
                                               mover_holds=10 ** 9)
        assert merged.rebalance_deferred == 1
        assert merged.migrations == 1
        shard1 = next(o for o in outcomes if o.shard_index == 1)
        assert mover in shard1.tenant_ids

    def test_deferral_changes_no_serving_decisions(self, monkeypatch):
        """Differential: deferred vs immediate execution of the same plan
        must serve identical deterministic counters (modulo the migration
        counters themselves)."""
        _, immediate, _, _ = self._run(monkeypatch)
        _, deferred, _, _ = self._run(monkeypatch, mover_holds=3)
        immediate_counters, immediate_migration = \
            _stable_counters(immediate)
        deferred_counters, deferred_migration = _stable_counters(deferred)
        assert deferred_counters == immediate_counters
        assert immediate_migration["rebalance_deferred"] == 0
        assert deferred_migration["rebalance_deferred"] == 1
        assert deferred_migration["migrations"] == \
            immediate_migration["migrations"] == 1


class TestDeferredMigrationGoldenTrace:
    def test_golden_replay_stays_exact_through_deferred_migration(
            self, rebalance_trace, monkeypatch):
        """The golden-trace differential through a deferred migration:
        decisions stay bit-exact and stable counters match the
        single-process replay even when the forced move is held back by
        an in-flight retrain for several batch boundaries."""
        import repro.serve.stack as stack_module

        tenants = sorted(rebalance_trace.rulesets)
        sticky, _ = _sticky_controller({tenants[0]: 4})
        monkeypatch.setattr(stack_module, "RetrainController", sticky)
        outcome = replay_trace(rebalance_trace, _two_serial_shards(
            retrain_threshold=10_000,
            retrain_policy=RetrainPolicy(timesteps=300, max_iterations=1,
                                         backend="serial"),
            rebalance_policy=ScheduledRebalancePolicy(moves=(
                (1, tenants[0], 1),
            )),
            rebalance_interval=0.01))
        assert outcome.report.is_exact, outcome.report.mismatches[:3]
        assert outcome.report.num_dropped == 0
        counters, migration = _stable_counters(outcome.result.report)
        assert migration["rebalance_deferred"] == 1
        assert migration["migrations"] == 1
        single_counters, _ = \
            _stable_counters(replay_trace(rebalance_trace).result.report)
        assert counters == single_counters

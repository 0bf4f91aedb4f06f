"""Partial recompilation: provenance, O(delta) rebuilds, slot metrics.

The fast path (:func:`repro.engine.partial_compile_classifier`) must only
ever *miss* — every fallback returns exactly what a full
:func:`compile_classifier` would — so these tests pin both sides: the reuse
accounting (which flat trees were carried over as block copies, how many
node rows were rebuilt) and the answers (partial output equals a fresh compile equals
linear search).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import (
    CompiledClassifier,
    compile_classifier,
    packets_to_array,
    partial_compile_classifier,
)
from repro.neurocuts import IncrementalUpdater
from repro.obs.metrics import MetricsRegistry
from repro.rules import Rule
from repro.serve import EngineSlot


def _fresh_rule(ruleset, name="hot"):
    """A rule strictly above every live priority (unambiguous tie-break)."""
    priority = max(r.priority for r in ruleset.rules) + 1
    return Rule.from_prefixes(src_ip="198.51.100.0/24", protocol=6,
                              priority=priority, name=name)


def _victim(ruleset):
    return next(r for r in ruleset.rules if r.num_wildcard_dims() < 5)


def _dirty_roots(provenance, rules):
    """The same delta-to-subtree mapping EngineSlot computes."""
    dirty = set()
    for rule in rules:
        for tree_roots in provenance.roots:
            if tree_roots is None:
                continue
            for root in tree_roots:
                if rule in root.rules:
                    dirty.add(id(root))
    return dirty


def _apply_delta(classifier, adds=(), removes=()):
    """Mutate the trees and ruleset the way the serving layer does."""
    updaters = [IncrementalUpdater(tree) for tree in classifier.trees]
    previous_provenance_rules = removes
    dirty = None  # computed by the caller against provenance
    for rule in removes:
        for updater in updaters:
            updater.remove_rule(rule)
    for rule in adds:
        updaters[0].add_rule(rule)
    ruleset = classifier.ruleset
    if removes:
        ruleset = ruleset.with_rules_removed(removes)
    if adds:
        ruleset = ruleset.with_rules_added(adds)
    classifier.ruleset = ruleset


def _priorities(matches):
    return [m.priority if m else None for m in matches]


@pytest.fixture()
def hicuts():
    ruleset = generate_classifier("acl1", 120, seed=3)
    return HiCutsBuilder(binth=8).build(ruleset)


@pytest.fixture()
def efficuts():
    ruleset = generate_classifier("fw1", 150, seed=0)
    return EffiCutsBuilder(binth=8).build(ruleset)


class TestProvenance:
    def test_compile_attaches_provenance(self, efficuts):
        compiled = compile_classifier(efficuts)
        prov = compiled.provenance
        assert prov is not None
        assert prov.trees == tuple(efficuts.trees)
        assert prov.versions == tuple(t.version for t in efficuts.trees)
        # Spans tile the subtree list tree-for-tree.
        assert prov.spans[0][0] == 0
        assert prov.spans[-1][1] == compiled.num_subtrees
        for (_, end), (start, _) in zip(prov.spans, prov.spans[1:]):
            assert end == start
        # The rule-slot map IS the index into the shared rule list.
        for rule, slot in prov.rule_slot.items():
            assert compiled.rules[slot] == rule

    def test_hand_assembled_engine_has_no_provenance(self, hicuts):
        compiled = compile_classifier(hicuts)
        bare = CompiledClassifier(subtrees=compiled.subtrees,
                                  rules=compiled.rules)
        assert bare.provenance is None


class TestPartialCompile:
    def test_noop_delta_reuses_every_subtree(self, efficuts):
        previous = compile_classifier(efficuts)
        result = partial_compile_classifier(efficuts, previous,
                                            dirty_roots=set())
        assert not result.full_rebuild
        assert result.trees_recompiled == 0
        assert result.nodes_recompiled == 0
        assert result.subtrees_reused == previous.num_subtrees
        # Views are per generation; a reused tree is a block copy of the
        # previous forest's rows (nodes_recompiled == 0 above is what says
        # nothing was re-flattened).
        for new, old in zip(result.classifier.subtrees, previous.subtrees):
            assert new.forest is result.classifier.forest
            assert new.forest is not old.forest
            assert new.nodes.tobytes() == old.nodes.tobytes()
            assert new.leaf_rules.tobytes() == old.leaf_rules.tobytes()
            assert (new.depth, new.max_leaf_span) == \
                (old.depth, old.max_leaf_span)
        assert result.classifier.rules is previous.rules

    def test_delta_rebuilds_only_what_it_touched(self, efficuts):
        ruleset = efficuts.ruleset
        previous = compile_classifier(efficuts)
        removes = [_victim(ruleset)]
        adds = [_fresh_rule(ruleset)]
        dirty = _dirty_roots(previous.provenance, removes)
        _apply_delta(efficuts, adds=adds, removes=removes)
        dirty |= _dirty_roots(previous.provenance, adds)

        result = partial_compile_classifier(efficuts, previous,
                                            dirty_roots=dirty)
        assert not result.full_rebuild
        assert result.trees_recompiled >= 1
        assert 0 < result.nodes_recompiled <= result.classifier.num_nodes
        # Only the flagged subtrees were re-flattened; the other categories
        # of the partitioned classifier were carried by reference even
        # though the shared ruleset bumped every tree's version.
        assert result.subtrees_reused == \
            result.classifier.num_subtrees - len(dirty)
        assert result.subtrees_reused > 0
        # The rule list is shared storage, patched append-only.
        assert result.classifier.rules is previous.rules
        assert adds[0] in result.classifier.rules

        # Answers equal a from-scratch compile AND linear search.
        packets = list(efficuts.ruleset.sample_packets(500, seed=5,
                                                       rule_bias=0.8))
        packets.append(efficuts.ruleset.sample_matching_packet(
            adds[0], random.Random(0)))
        fresh = compile_classifier(efficuts)
        got = _priorities(result.classifier.classify_batch(packets))
        assert got == _priorities(fresh.classify_batch(packets))
        assert got == _priorities(
            [efficuts.ruleset.classify(p) for p in packets])

    def test_missing_dirty_map_rebuilds_changed_trees(self, hicuts):
        previous = compile_classifier(hicuts)
        _apply_delta(hicuts, adds=[_fresh_rule(hicuts.ruleset)])
        result = partial_compile_classifier(hicuts, previous,
                                            dirty_roots=None)
        assert not result.full_rebuild
        assert result.trees_recompiled == 1
        assert result.subtrees_reused == 0
        assert result.nodes_recompiled == result.classifier.num_nodes

    def test_ruleset_only_version_bump_reuses_subtrees(self, efficuts):
        # Removing a rule from a partitioned classifier bumps *every*
        # tree's version (they share the ruleset) but only changes node
        # rule lists where the rule actually lived.  With an authoritative
        # dirty map the untouched trees are reused, and the result is
        # still exact against linear search.
        ruleset = efficuts.ruleset
        previous = compile_classifier(efficuts)
        removes = [_victim(ruleset)]
        dirty = _dirty_roots(previous.provenance, removes)
        assert 0 < len(dirty) < previous.num_subtrees
        _apply_delta(efficuts, removes=removes)
        result = partial_compile_classifier(efficuts, previous,
                                            dirty_roots=dirty)
        assert not result.full_rebuild
        assert result.trees_recompiled == len(dirty)
        assert result.subtrees_reused == previous.num_subtrees - len(dirty)
        packets = efficuts.ruleset.sample_packets(400, seed=3, rule_bias=0.8)
        got = _priorities(result.classifier.classify_batch(packets))
        assert got == _priorities(
            [efficuts.ruleset.classify(p) for p in packets])

    def test_different_trees_force_full_rebuild(self, hicuts):
        previous = compile_classifier(hicuts)
        retrained = HiCutsBuilder(binth=12).build(hicuts.ruleset)
        result = partial_compile_classifier(retrained, previous)
        assert result.full_rebuild
        assert result.classifier.provenance is not None

    def test_no_provenance_forces_full_rebuild(self, hicuts):
        previous = compile_classifier(hicuts)
        bare = CompiledClassifier(subtrees=previous.subtrees,
                                  rules=previous.rules)
        result = partial_compile_classifier(hicuts, bare)
        assert result.full_rebuild


class TestEngineSlotPartial:
    def _slot(self, classifier, **kwargs):
        metrics = MetricsRegistry()
        slot = EngineSlot("t0", classifier, flow_cache_size=256,
                          background=False, metrics=metrics, **kwargs)
        return slot, metrics

    def test_update_goes_through_partial_recompile(self, hicuts):
        slot, metrics = self._slot(hicuts)
        assert metrics.counters["engine.compiles_full"].value == 1
        victim = _victim(slot.ruleset)
        slot.apply_update(adds=[_fresh_rule(slot.ruleset)],
                          removes=[victim])
        assert metrics.counters["engine.compiles_full"].value == 1
        assert metrics.counters["engine.compiles_partial"].value == 1
        assert metrics.timings["engine.partial_compile_seconds"].count == 1
        assert metrics.timings["engine.compile_seconds"].count == 1
        assert metrics.gauges["engine.nodes_recompiled"].value > 0
        # The partially recompiled engine is exact against linear search.
        packets = slot.ruleset.sample_packets(400, seed=9, rule_bias=0.8)
        got = _priorities(slot.engine().classify_batch(packets))
        assert got == _priorities(
            [slot.ruleset.classify(p) for p in packets])

    def test_partial_recompile_off_means_full_compiles(self, hicuts):
        slot, metrics = self._slot(hicuts, partial_recompile=False)
        slot.apply_update(adds=[_fresh_rule(slot.ruleset)])
        assert metrics.counters["engine.compiles_full"].value == 2
        assert metrics.counters["engine.compiles_partial"].value == 0
        assert metrics.gauges["engine.nodes_recompiled"].value == 0

    def test_adopting_retrained_trees_is_a_full_rebuild(self, hicuts):
        slot, metrics = self._slot(hicuts)
        retrained = HiCutsBuilder(binth=12).build(slot.ruleset)
        slot.adopt_classifier(retrained)
        assert metrics.counters["engine.compiles_full"].value == 2
        assert metrics.counters["engine.compiles_partial"].value == 0


class TestDeadRuleSlots:
    """Slots are append-only across partial recompiles; the rules a churned
    tenant no longer holds must not pile up in its rule list and table."""

    def test_rule_table_stays_within_twice_the_referenced_rules(self):
        ruleset = generate_classifier("acl1", 60, seed=3)
        slot = EngineSlot("t0", HiCutsBuilder(binth=8).build(ruleset),
                          flow_cache_size=None, background=False)
        top = max(rule.priority for rule in ruleset.rules)
        rng = random.Random(11)
        added, rounds = [], 40
        for round_ in range(rounds):
            adds = [Rule.from_prefixes(
                src_ip=f"10.{round_}.{i}.0/24", dst_port=(80 + i, 90 + i),
                protocol=6, priority=top + 1 + round_ * 5 + i,
                name=f"r{round_}-{i}") for i in range(5)]
            removes, added = added, adds  # last round's adds leave again
            slot.apply_update(adds=adds, removes=removes)
            engine = slot.engine()
            referenced = len(np.unique(engine.forest.rule["rule_index"]))
            assert len(engine.rules) <= 2 * referenced, round_
            assert len(engine.forest.table["priority"]) == len(engine.rules)
            live = slot.ruleset
            packets = live.sample_packets(60, seed=round_, rule_bias=0.8)
            packets += [live.sample_matching_packet(rule, rng)
                        for rule in adds + removes]
            assert _priorities(engine.classify_batch(packets)) == \
                _priorities([live.classify(p) for p in packets]), round_
        assert slot.swap_stats.swaps == rounds
        counters = slot.metrics.counters
        # Slot numbering started afresh at least once, and only rarely.
        assert 1 < counters["engine.compiles_full"].value <= 1 + rounds // 8
        assert counters["engine.compiles_full"].value \
            + counters["engine.compiles_partial"].value == 1 + rounds


class TestChurnAsGenerated:
    """``generate_churn`` removes rules the trees were *built* with.

    Builders prune, inside each child box, the rules a higher-priority rule
    shadows; removing the shadowing rule must bring them back, or the tree
    (and every engine compiled from it) answers with a lower-priority match
    than linear search.  Packets are drawn inside the removed rules' boxes,
    which is where a lost rule shows.
    """

    @pytest.mark.parametrize("family,builder", [
        ("acl1", HiCutsBuilder), ("fw1", HiCutsBuilder),
        ("ipc1", HiCutsBuilder), ("fw1", EffiCutsBuilder)],
        ids=lambda value: getattr(value, "name", value))
    def test_every_event_stays_exact(self, family, builder):
        from repro.workloads.scenario import ChurnConfig, build_workload, \
            make_tenant_specs
        from repro.workloads.traffic import FlowTraceConfig

        specs = make_tenant_specs(1, families=(family,), num_rules=150,
                                  seed=1000, algorithm="HiCuts", binth=8)
        workload = build_workload(
            specs, FlowTraceConfig(num_packets=400, num_flows=50, seed=5),
            churn=ChurnConfig(num_events=24, adds_per_event=5,
                              removes_per_event=3, window=(0.05, 0.95)))
        assert len(workload.updates) >= 20
        tenant = specs[0].tenant_id
        built_with = set(workload.rulesets[tenant].rules)
        assert any(rule in built_with for update in workload.updates
                   for rule in update.removes)

        classifier = builder(binth=8).build(workload.rulesets[tenant])
        slot = EngineSlot(tenant, classifier, flow_cache_size=None,
                          background=False)
        rng = random.Random(7)
        removed = []
        for event, update in enumerate(workload.updates):
            slot.apply_update(adds=update.adds, removes=update.removes)
            removed.extend(update.removes)
            ruleset = slot.ruleset
            packets = ruleset.sample_packets(100, seed=event)
            packets += [ruleset.sample_matching_packet(rule, rng)
                        for rule in removed for _ in range(12)]
            expected = _priorities([ruleset.classify(p) for p in packets])
            where = f"{builder.name} {family}, event {event}"
            assert _priorities([slot.classifier.classify(p)
                                for p in packets]) == expected, where
            partial = slot.engine()
            assert _priorities(partial.classify_batch(packets)) \
                == expected, where
            full = compile_classifier(slot.classifier)
            assert _priorities(full.classify_batch(packets)) \
                == expected, where
        assert slot.metrics.counters["engine.compiles_partial"].value \
            == len(workload.updates)

"""Partial recompilation: the leaf record, leaf-granular re-spans, metrics.

The fast path (:func:`repro.engine.partial_compile_classifier`) must only
ever *miss* — every fallback returns exactly what a full
:func:`compile_classifier` would — so these tests pin both sides: what a
generation shares, copies and appends (every node column by reference but
``start``/``count``, one new span per leaf the updater recorded) and the
answers (partial output equals a fresh compile, the per-packet reference
walk and linear search).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import reference_walk
from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import (
    KIND_LEAF,
    NODE_DTYPE,
    CompiledClassifier,
    compile_classifier,
    packets_to_array,
    partial_compile_classifier,
)
from repro.neurocuts import IncrementalUpdater
from repro.obs.metrics import MetricsRegistry
from repro.rules import DIMENSIONS, Dimension, Packet, Rule
from repro.serve import EngineSlot
from repro.tree import CutAction, PartitionAction, TreeClassifier, \
    build_with_policy
from repro.tree.validate import corner_packets


def _fresh_rule(ruleset, name="hot"):
    """A rule strictly above every live priority (unambiguous tie-break)."""
    priority = max(r.priority for r in ruleset.rules) + 1
    return Rule.from_prefixes(src_ip="198.51.100.0/24", protocol=6,
                              priority=priority, name=name)


def _victim(ruleset):
    return next(r for r in ruleset.rules if r.num_wildcard_dims() < 5)


def _apply_delta(classifier, adds=(), removes=()):
    """Mutate the trees and ruleset the way the serving layer does; returns
    the updaters' leaf records, one per tree."""
    updaters = [IncrementalUpdater(tree) for tree in classifier.trees]
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
    return [updater.take_touched() for updater in updaters]


def _priorities(matches):
    return [m.priority if m else None for m in matches]


def _assert_exact(engine, ruleset, packets):
    """``engine`` answers as the reference walk and linear search do."""
    values = packets_to_array(packets)
    indices = engine.match_indices(values)
    assert indices.tobytes() == \
        reference_walk.match_indices(engine, values).tobytes()
    assert [engine.rules[i].priority if i >= 0 else None
            for i in indices.tolist()] == \
        _priorities([ruleset.classify(p) for p in packets])


def _leaf_rows(engine):
    """``(interpreter leaf, node row, block)`` of every leaf row."""
    return [(leaf, row, block)
            for leaf, rows in engine.provenance.rows_of(engine).values()
            for row, block in rows]


def _partition_below_cut(ruleset):
    """A tree whose partition sits below a cut: its leaves are flattened
    once per clone of the path above the partition."""

    def policy(node):
        if node.depth == 0:
            return CutAction(Dimension.SRC_IP, 2)
        if node.depth == 1:
            return PartitionAction(Dimension.DST_IP, 0.5)
        return CutAction(Dimension(node.depth % len(DIMENSIONS)), 4)

    tree = build_with_policy(ruleset, policy, leaf_threshold=4, max_depth=5,
                             max_actions=200)
    return TreeClassifier(ruleset, [tree], name="partition-below-cut")


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
        # Every leaf row of the forest is recorded, in row order, as the
        # interpreter leaf it was flattened from; the map finds its block.
        node = compiled.forest.node
        rows = np.flatnonzero(node["kind"] == KIND_LEAF)
        assert len(prov.leaves) == len(rows)
        leaves = {id(leaf) for tree in efficuts.trees
                  for leaf in tree.leaves()}
        for leaf, row in zip(prov.leaves, rows):
            assert id(leaf) in leaves
            assert node["count"][row] == len(leaf.rules)
        mapped = _leaf_rows(compiled)
        assert sorted(row for _, row, _ in mapped) == rows.tolist()
        for leaf, row, block in mapped:
            tree = compiled.subtrees[block]
            assert tree.node_offset <= row < tree.node_offset + tree.num_nodes
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
                                            _apply_delta(efficuts))
        assert not result.full_rebuild
        assert result.leaves_respanned == 0
        # Every column of the previous forest is shared, none copied.
        new = result.classifier.forest
        for columns, old in ((new.node, previous.forest.node),
                             (new.rule, previous.forest.rule),
                             (new.table, previous.forest.table)):
            assert all(columns[name] is old[name] for name in old)
        for tree, old in zip(result.classifier.subtrees, previous.subtrees):
            assert tree.forest is new
            assert (tree.node_offset, tree.num_nodes, tree.rule_offset,
                    tree.num_leaf_rules, tree.depth, tree.max_leaf_span) == \
                (old.node_offset, old.num_nodes, old.rule_offset,
                 old.num_leaf_rules, old.depth, old.max_leaf_span)
        assert result.classifier.rules is previous.rules
        assert result.classifier.flow_cache is None

    def test_delta_rebuilds_only_what_it_touched(self, efficuts):
        ruleset = efficuts.ruleset
        previous = compile_classifier(efficuts)
        adds = [_fresh_rule(ruleset)]
        records = _apply_delta(efficuts, adds=adds,
                               removes=[_victim(ruleset)])
        recorded = {id(leaf) for record in records for leaf in record.leaves}
        assert recorded

        result = partial_compile_classifier(efficuts, previous, records)
        assert not result.full_rebuild
        assert result.leaves_respanned == len(recorded)
        old, new = previous.forest, result.classifier.forest
        # Node columns are shared but for start/count, which are copies
        # that differ exactly at the rows of the recorded leaves.
        for name in NODE_DTYPE.names:
            assert (new.node[name] is old.node[name]) == \
                (name not in ("start", "count"))
        moved = np.flatnonzero((new.node["start"] != old.node["start"])
                               | (new.node["count"] != old.node["count"]))
        assert set(moved.tolist()) == {
            row for leaf, row, _ in _leaf_rows(previous)
            if id(leaf) in recorded}
        # Each recorded leaf's span was appended past the old column.
        for leaf, row, block in _leaf_rows(previous):
            if id(leaf) in recorded:
                tree = result.classifier.subtrees[block]
                assert tree.rule_offset + new.node["start"][row] \
                    >= len(old.rule["rule_index"])
                assert new.node["count"][row] == len(leaf.rules)
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
        _assert_exact(result.classifier, efficuts.ruleset, packets)

    def test_missing_record_is_a_full_rebuild(self, hicuts):
        previous = compile_classifier(hicuts)
        records = _apply_delta(hicuts, adds=[_fresh_rule(hicuts.ruleset)])
        result = partial_compile_classifier(hicuts, previous, None)
        assert result.full_rebuild and not result.compacted
        # A tree that moved past what its record covers is rebuilt too.
        hicuts.trees[0].mark_modified()
        result = partial_compile_classifier(hicuts, previous, records)
        assert result.full_rebuild
        assert result.classifier.num_nodes == previous.num_nodes

    def test_ruleset_only_version_bump_reuses_subtrees(self, efficuts):
        # Removing a rule from a partitioned classifier bumps *every*
        # tree's version (they share the ruleset) but edits only the leaf
        # rule lists of the trees the rule lived in.  Their records cover
        # the version moves with no leaves, so those trees' blocks keep
        # every row, and the result is still exact against linear search.
        ruleset = efficuts.ruleset
        previous = compile_classifier(efficuts)
        records = _apply_delta(efficuts, removes=[_victim(ruleset)])
        assert all(t.version != v for t, v in
                   zip(efficuts.trees, previous.provenance.versions))
        edited = [bool(record.leaves) for record in records]
        assert any(edited) and not all(edited)
        result = partial_compile_classifier(efficuts, previous, records)
        assert not result.full_rebuild
        assert result.leaves_respanned == sum(len(r.leaves) for r in records)
        blocks = {block for leaf, _, block in _leaf_rows(previous)
                  if any(leaf is touched for record in records
                         for touched in record.leaves)}
        for block, (new, old) in enumerate(zip(result.classifier.subtrees,
                                               previous.subtrees)):
            if block not in blocks:
                assert new.nodes.tobytes() == old.nodes.tobytes()
                assert new.leaf_rules.tobytes() == old.leaf_rules.tobytes()
        packets = efficuts.ruleset.sample_packets(400, seed=3, rule_bias=0.8)
        _assert_exact(result.classifier, efficuts.ruleset, packets)

    def test_different_trees_force_full_rebuild(self, hicuts):
        previous = compile_classifier(hicuts)
        retrained = HiCutsBuilder(binth=12).build(hicuts.ruleset)
        result = partial_compile_classifier(retrained, previous, [])
        assert result.full_rebuild
        assert result.classifier.provenance is not None

    def test_no_provenance_forces_full_rebuild(self, hicuts):
        previous = compile_classifier(hicuts)
        bare = CompiledClassifier(subtrees=previous.subtrees,
                                  rules=previous.rules)
        result = partial_compile_classifier(hicuts, bare, [])
        assert result.full_rebuild


class TestRespannedLayout:
    """Re-spanned leaves point past their block; every reader of a block
    must still see their spans."""

    def test_leaf_wider_than_its_block_stays_exact(self, hicuts):
        previous = compile_classifier(hicuts)
        tree = previous.subtrees[0]
        count = previous.forest.node["count"]
        leaf = next(leaf for leaf, row, _ in _leaf_rows(previous)
                    if count[row] == tree.max_leaf_span)
        # Rules exactly covering the widest leaf's box land in it alone,
        # above every rule it held: its span doubles.
        top = max(r.priority for r in hicuts.ruleset.rules)
        adds = [Rule(ranges=leaf.ranges, priority=top + 1 + i,
                     name=f"wide{i}") for i in range(tree.max_leaf_span)]
        records = _apply_delta(hicuts, adds=adds)
        assert [len(r.leaves) for r in records] == [1]
        result = partial_compile_classifier(hicuts, previous, records)
        assert not result.full_rebuild
        engine = result.classifier
        widened = engine.subtrees[0]
        assert widened.max_leaf_span == 2 * tree.max_leaf_span
        # The block now reaches to the appended span, so its views see it.
        assert widened.num_leaf_rules == len(engine.forest.rule["rule_index"])
        assert len(widened.leaf_rules) == widened.num_leaf_rules
        packets = [Packet.from_values(tuple(lo for lo, _ in leaf.ranges)),
                   Packet.from_values(tuple(hi - 1 for _, hi in leaf.ranges))]
        packets += hicuts.ruleset.sample_packets(300, seed=2, rule_bias=0.8)
        _assert_exact(engine, hicuts.ruleset, packets)
        assert engine.classify_batch(packets[:1])[0] is adds[-1]
        # A copy of the re-spanned subtrees carries the spans with them.
        copied = CompiledClassifier(subtrees=engine.subtrees,
                                    rules=engine.rules)
        values = packets_to_array(packets)
        assert copied.match_indices(values).tobytes() == \
            engine.match_indices(values).tobytes()

    def test_every_row_of_a_cloned_leaf_is_repointed(self):
        ruleset = generate_classifier("fw1", 60, seed=1)
        classifier = _partition_below_cut(ruleset)
        previous = compile_classifier(classifier)
        rows_of = previous.provenance.rows_of(previous)
        leaf, rows = next(entry for entry in rows_of.values()
                          if len(entry[1]) > 1 and entry[0].rules)
        records = _apply_delta(classifier, removes=[leaf.rules[0]])
        assert any(touched is leaf for touched in records[0].leaves)
        result = partial_compile_classifier(classifier, previous, records)
        assert not result.full_rebuild
        engine, old_end = result.classifier, \
            len(previous.forest.rule["rule_index"])
        for touched in records[0].leaves:
            spans = {(engine.subtrees[block].rule_offset
                      + int(engine.forest.node["start"][row]),
                      int(engine.forest.node["count"][row]))
                     for row, block in rows_of[id(touched)][1]}
            # All of a leaf's rows point at its one new span.
            assert len(spans) == 1
            (first, length), = spans
            assert first >= old_end and length == len(touched.rules)
        packets = classifier.ruleset.sample_packets(300, seed=4,
                                                    rule_bias=0.8)
        _assert_exact(engine, classifier.ruleset, packets)

    def test_leaf_restored_in_another_partition_child_is_respanned(self):
        # Removing the top rule brings back a rule it shadowed above the
        # partition, into the partition child the removed rule is not in:
        # leaves it never held must be re-spanned too.
        ruleset = generate_classifier("ipc1", 16, seed=1440)
        classifier = _partition_below_cut(ruleset)
        previous = compile_classifier(classifier)
        top = max(ruleset.rules, key=lambda rule: rule.priority)
        holders = {id(leaf) for leaf in classifier.trees[0].leaves()
                   if top in leaf.rules}
        records = _apply_delta(classifier, removes=[top])
        assert any(id(leaf) not in holders for leaf in records[0].leaves)
        result = partial_compile_classifier(classifier, previous, records)
        assert not result.full_rebuild
        packets = corner_packets(ruleset) + classifier.ruleset.sample_packets(
            300, seed=1, rule_bias=0.8)
        _assert_exact(result.classifier, classifier.ruleset, packets)

    def test_compaction_packs_to_a_cold_compile(self, hicuts):
        engine = compile_classifier(hicuts)
        top = max(r.priority for r in hicuts.ruleset.rules)
        for i in range(8):
            # Near-wildcard rules reach almost every leaf: each add turns
            # most of the column into dead spans.
            records = _apply_delta(hicuts, adds=[Rule.from_fields(
                protocol=(6, 7), dst_port=(i, i + 1), priority=top + 1 + i,
                name=f"wide{i}")])
            result = partial_compile_classifier(hicuts, engine, records)
            assert not result.full_rebuild
            engine = result.classifier
            if result.compacted:
                break
        assert result.compacted
        cold = compile_classifier(hicuts)
        assert engine.memory_bytes() == cold.memory_bytes()
        for name in NODE_DTYPE.names:
            assert engine.forest.node[name].tobytes() == \
                cold.forest.node[name].tobytes()
        assert [engine.rules[s] for s in engine.forest.rule["rule_index"]] \
            == [cold.rules[s] for s in cold.forest.rule["rule_index"]]
        values = packets_to_array(
            hicuts.ruleset.sample_packets(400, seed=6, rule_bias=0.8))
        assert [engine.rules[i] for i in engine.match_indices(values)] == \
            [cold.rules[i] for i in cold.match_indices(values)]


class TestEngineSlotPartial:
    def _slot(self, classifier, **kwargs):
        metrics = MetricsRegistry()
        slot = EngineSlot("t0", classifier, flow_cache_size=256,
                          metrics=metrics, **kwargs)
        return slot, metrics

    def test_update_goes_through_partial_recompile(self, hicuts):
        slot, metrics = self._slot(hicuts)
        assert metrics.counters["engine.compiles_full"].value == 1
        victim = _victim(slot.ruleset)
        slot.apply_update(adds=[_fresh_rule(slot.ruleset)],
                          removes=[victim])
        assert metrics.counters["engine.compiles_full"].value == 1
        assert metrics.counters["engine.compiles_partial"].value == 1
        assert metrics.counters["engine.compactions"].value == 0
        assert metrics.timings["engine.partial_compile_seconds"].count == 1
        assert metrics.timings["engine.compile_seconds"].count == 1
        assert metrics.gauges["engine.leaves_respanned"].value > 0
        # The partially recompiled engine is exact against linear search.
        packets = slot.ruleset.sample_packets(400, seed=9, rule_bias=0.8)
        got = _priorities(slot.engine().classify_batch(packets))
        assert got == _priorities(
            [slot.ruleset.classify(p) for p in packets])

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
                          flow_cache_size=None)
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
            node = engine.forest.node
            live = int(node["count"][node["kind"] == KIND_LEAF].sum())
            assert len(engine.forest.rule["rule_index"]) - live <= live, \
                round_
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
        slot = EngineSlot(tenant, classifier, flow_cache_size=None)
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
            assert _priorities([reference_walk.classify(slot.classifier, p)
                                for p in packets]) == expected, where
            partial = slot.engine()
            assert _priorities(partial.classify_batch(packets)) \
                == expected, where
            full = compile_classifier(slot.classifier)
            assert _priorities(full.classify_batch(packets)) \
                == expected, where
        assert slot.metrics.counters["engine.compiles_partial"].value \
            == len(workload.updates)

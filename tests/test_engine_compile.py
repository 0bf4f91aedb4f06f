"""Unit tests for the compiled dataplane engine.

Covers the flat-array layout, compilation of every action kind (cuts,
multicuts, splits, partitions), the multi-tree dispatcher, the LRU flow
cache, and cache invalidation on tree mutation.  The recursive walk of
the tree model (``reference_walk.classify``) is the interpreter oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_walk
from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    HyperCutsBuilder,
    LinearSearchBuilder,
)
from repro.classbench import generate_classifier
from repro.engine import (
    KIND_CUT,
    KIND_LEAF,
    LEAF_RULE_DTYPE,
    NODE_DTYPE,
    CompiledClassifier,
    FlowCache,
    compile_classifier,
    compile_tree,
    packets_to_array,
)
from repro.neurocuts import IncrementalUpdater
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import CutAction, DecisionTree, SplitAction, TreeClassifier


@pytest.fixture(scope="module")
def acl_classifier():
    ruleset = generate_classifier("acl1", 120, seed=3)
    return HiCutsBuilder(binth=8).build(ruleset)


class TestFlatLayout:
    def test_structured_arrays_and_contiguous_children(self, acl_classifier):
        compiled = acl_classifier.compile()
        tree = compiled.subtrees[0]
        assert tree.nodes.dtype == NODE_DTYPE
        assert tree.leaf_rules.dtype == LEAF_RULE_DTYPE
        internal = tree.nodes[tree.nodes["kind"] != KIND_LEAF]
        # Children occupy contiguous spans strictly after their parent.
        for row in internal:
            assert row["count"] >= 2
            assert row["start"] > 0
            assert row["start"] + row["count"] <= len(tree.nodes)
        leaves = tree.nodes[tree.nodes["kind"] == KIND_LEAF]
        assert (leaves["count"] >= 0).all()
        assert (leaves["start"] + leaves["count"]
                <= len(tree.leaf_rules)).all()

    def test_leaf_rules_sorted_by_priority(self, acl_classifier):
        compiled = acl_classifier.compile()
        for tree in compiled.subtrees:
            leaves = tree.nodes[tree.nodes["kind"] == KIND_LEAF]
            for row in leaves:
                span = tree.leaf_rules["priority"][
                    row["start"]:row["start"] + row["count"]
                ]
                assert (np.diff(span) <= 0).all()

    def test_single_leaf_tree_is_vectorised_linear_search(self):
        ruleset = generate_classifier("ipc1", 40, seed=5)
        classifier = LinearSearchBuilder().build(ruleset)
        compiled = classifier.compile()
        assert compiled.num_subtrees == 1
        assert compiled.subtrees[0].num_nodes == 1
        assert compiled.subtrees[0].nodes["kind"][0] == KIND_LEAF
        packets = ruleset.sample_packets(200, seed=9)
        for packet, match in zip(packets, compiled.classify_batch(packets)):
            expected = ruleset.classify(packet)
            assert (match.priority if match else None) == \
                (expected.priority if expected else None)

    def test_cut_arithmetic_handles_uneven_spans(self):
        # A 10-wide protocol range cut 4 ways: children of widths 3,3,2,2.
        rules = [
            Rule.from_fields(protocol=(p, p + 1), priority=10 - p, name=f"r{p}")
            for p in range(10)
        ]
        ruleset = RuleSet(rules, name="uneven")
        tree = DecisionTree(ruleset, leaf_threshold=3, prune_redundant=False)
        tree.apply_action(SplitAction(dimension=Dimension.PROTOCOL,
                                      split_point=10))
        # The [0, 10) child is next in DFS order; 4 cuts give widths 3,3,2,2.
        tree.apply_action(CutAction(dimension=Dimension.PROTOCOL, num_cuts=4))
        tree.truncate()
        classifier = TreeClassifier(ruleset, [tree])
        compiled = classifier.compile()
        for proto in range(10):
            packet = Packet(0, 0, 0, 0, proto)
            expected = ruleset.classify(packet)
            actual = compiled.classify(packet)
            assert actual is not None and actual.priority == expected.priority


class TestDispatcher:
    @pytest.mark.parametrize("builder_cls", [
        HiCutsBuilder, HyperCutsBuilder, EffiCutsBuilder, CutSplitBuilder,
    ])
    def test_every_baseline_compiles_and_agrees(self, builder_cls):
        ruleset = generate_classifier("fw5", 90, seed=2)
        classifier = builder_cls(binth=8).build(ruleset)
        compiled = compile_classifier(classifier)
        packets = ruleset.sample_packets(400, seed=4)
        expected = [reference_walk.classify(classifier, p) for p in packets]
        linear = [ruleset.classify(p) for p in packets]
        actual = compiled.classify_batch(packets)
        for want, oracle, got in zip(expected, linear, actual):
            assert (want.priority if want else None) == \
                (got.priority if got else None) == \
                (oracle.priority if oracle else None)

    def test_partitioned_classifier_expands_to_multiple_search_trees(self):
        ruleset = generate_classifier("fw1", 120, seed=0)
        classifier = EffiCutsBuilder(binth=8).build(ruleset)
        compiled = classifier.compile()
        assert compiled.num_subtrees >= 2
        assert compiled.memory_bytes() > 0
        assert f"subtrees={compiled.num_subtrees}" in compiled.describe()

    def test_lookup_batch_accepts_raw_header_matrix(self, acl_classifier):
        packets = acl_classifier.ruleset.sample_packets(128, seed=1)
        values = packets_to_array(packets)
        indices = acl_classifier.compile().match_indices(values)
        assert indices.shape == (128,)
        assert indices.dtype == np.int64

    def test_empty_batch(self, acl_classifier):
        assert acl_classifier.compile().classify_batch([]) == []

    def test_compile_tree_reuses_shared_rule_pool(self, acl_classifier):
        rule_slot, rules_out = {}, []
        flats = []
        for tree in acl_classifier.trees:
            flats.extend(compile_tree(tree, rule_slot, rules_out))
        assert len(rules_out) == len(rule_slot)
        compiled = CompiledClassifier(subtrees=flats, rules=rules_out)
        packet = acl_classifier.ruleset.sample_packets(1, seed=0)[0]
        want = reference_walk.classify(acl_classifier, packet)
        got = compiled.classify(packet)
        assert (want.priority if want else None) == \
            (got.priority if got else None)


class TestFlowCache:
    def test_lru_eviction_and_stats(self):
        cache = FlowCache(capacity=2)
        cache.put((1, 1, 1, 1, 1), 10)
        cache.put((2, 2, 2, 2, 2), 20)
        assert cache.get((1, 1, 1, 1, 1)) == 10  # refreshes key 1
        cache.put((3, 3, 3, 3, 3), 30)  # evicts key 2
        assert cache.get((2, 2, 2, 2, 2)) is None
        assert cache.get((3, 3, 3, 3, 3)) == 30
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_cached_results_match_uncached(self, acl_classifier):
        packets = acl_classifier.ruleset.sample_packets(100, seed=6)
        replay = packets + packets  # every flow repeats within the batch
        uncached = acl_classifier.compile().classify_batch(replay)
        compiled = acl_classifier.compile(flow_cache_size=256)
        cached = compiled.classify_batch(replay)
        assert [r.priority if r else None for r in cached] == \
            [r.priority if r else None for r in uncached]
        # Intra-batch duplicates resolve through per-flow dedup, so the
        # first batch records one miss per distinct flow...
        assert compiled.flow_cache.stats.misses == len(packets)
        # ...and a replayed batch is answered entirely from the cache.
        again = compiled.classify_batch(replay)
        assert compiled.flow_cache.stats.hits == len(replay)
        assert [r.priority if r else None for r in again] == \
            [r.priority if r else None for r in uncached]

    def test_batch_path_keeps_per_packet_lru_semantics(self, acl_classifier):
        # lookup_batch probes first and accounts after the walk; counters,
        # entries and LRU order must end as the per-packet get/put loop
        # leaves them: a hit per cached packet, a miss per distinct missing
        # flow, then one put per missing flow in order of first appearance.
        compiled = acl_classifier.compile(flow_cache_size=24)
        reference = FlowCache(capacity=24)
        flows = packets_to_array(
            acl_classifier.ruleset.sample_packets(60, seed=11))
        rng = np.random.default_rng(4)
        for _ in range(30):
            batch = flows[rng.zipf(1.3, size=int(rng.integers(1, 40))) % 60]
            found = compiled.lookup_batch(batch)
            np.testing.assert_array_equal(found,
                                          compiled.match_indices(batch))
            walked = {}
            for key, rule_index in zip(map(tuple, batch.tolist()), found):
                if key not in walked and reference.get(key) is None:
                    walked[key] = int(rule_index)
            for key, rule_index in walked.items():
                reference.put(key, rule_index)
            assert compiled.flow_cache.stats == reference.stats
            assert compiled.flow_cache.entries() == reference.entries()
        assert reference.stats.evictions > 0 and reference.stats.hits > 0

    def test_clear_counts_invalidations_separately(self):
        cache = FlowCache(capacity=4)
        cache.put((1, 1, 1, 1, 1), 10)
        cache.put((2, 2, 2, 2, 2), 20)
        dropped = cache.clear()
        assert dropped == 2 and len(cache) == 0
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 0  # LRU evictions stay distinct
        assert cache.clear() == 0

    def test_stats_merge_and_as_dict(self):
        from repro.engine import FlowCacheStats

        total = FlowCacheStats(hits=3, misses=1, evictions=2, invalidations=1,
                               bypassed=7)
        other = FlowCacheStats(hits=1, misses=1, evictions=0,
                               invalidations=4, bypassed=8)
        copy = other.copy()
        total.merge(other)
        assert (total.hits, total.misses) == (4, 2)
        assert (total.evictions, total.invalidations) == (2, 5)
        assert total.bypassed == 15
        as_dict = total.as_dict()
        # Bypassed packets were never probed: not in the hit rate's base.
        assert as_dict["hit_rate"] == pytest.approx(4 / 6)
        assert as_dict["invalidations"] == 5
        assert as_dict["bypassed"] == 15
        copy.bypassed += 1  # a copy shares no counter with its source
        assert copy != other and other.bypassed == 8

    def test_attach_and_detach(self, acl_classifier):
        compiled = acl_classifier.compile()
        cache = compiled.attach_flow_cache(16)
        assert compiled.flow_cache is cache
        compiled.detach_flow_cache()
        assert compiled.flow_cache is None

    def test_repeated_compile_keeps_cache_and_entries(self, acl_classifier):
        acl_classifier.invalidate_compiled()
        compiled = acl_classifier.compile(flow_cache_size=32)
        cache = compiled.flow_cache
        packet = acl_classifier.ruleset.sample_packets(1, seed=5)[0]
        compiled.classify(packet)
        assert len(cache) == 1
        # A cache-hit compile with the same capacity must not reset the cache.
        assert acl_classifier.compile(flow_cache_size=32).flow_cache is cache
        assert acl_classifier.compile().flow_cache is cache
        assert len(cache) == 1
        # Recompiling after a tree change drops entries but keeps caching on.
        acl_classifier.trees[0].mark_modified()
        fresh = acl_classifier.compile()
        assert fresh.flow_cache is not None
        assert fresh.flow_cache.capacity == 32
        assert len(fresh.flow_cache) == 0

    def test_bench_restores_caller_flow_cache(self, acl_classifier):
        from repro.engine import bench_classifier

        compiled = acl_classifier.compile()
        caller_cache = compiled.attach_flow_cache(64)
        packets = acl_classifier.ruleset.sample_packets(300, seed=8)
        bench_classifier(acl_classifier, packets, flow_cache_size=16,
                         repeats=1)
        assert compiled.flow_cache is caller_cache


class TestClassifierIntegration:
    def test_compile_is_cached_until_tree_changes(self, acl_classifier):
        first = acl_classifier.compile()
        assert acl_classifier.compile() is first
        acl_classifier.trees[0].mark_modified()
        assert acl_classifier.compile() is not first

    def test_incremental_update_invalidates_compiled(self):
        ruleset = generate_classifier("acl2", 60, seed=1)
        classifier = HiCutsBuilder(binth=8).build(ruleset)
        stale = classifier.compile()
        updater = IncrementalUpdater(classifier.trees[0])
        top = max(r.priority for r in ruleset) + 1
        new_rule = Rule.wildcard(priority=top, name="hot")
        assert updater.add_rule(new_rule) > 0
        fresh = classifier.compile()
        assert fresh is not stale
        packet = ruleset.sample_packets(1, seed=2)[0]
        assert fresh.classify(packet).priority == top

    def test_builder_build_compiled(self):
        ruleset = generate_classifier("acl1", 50, seed=8)
        compiled = HiCutsBuilder(binth=8).build_compiled(ruleset)
        assert isinstance(compiled, CompiledClassifier)
        packet = ruleset.sample_packets(1, seed=3)[0]
        expected = ruleset.classify(packet)
        got = compiled.classify(packet)
        assert (got.priority if got else None) == \
            (expected.priority if expected else None)

"""The engine's forest: column tables, the fused walk, its guards.

One :class:`~repro.engine.Forest` per compiled classifier holds every search
tree; ``match_indices`` walks all ``(tree, packet)`` lanes in one loop and
reduces along the tree axis.  These tests pin what that design must keep:
the tie-break between trees, the per-tree depth guard, the footprint, the
read-only columns, and the header check at the engine boundary.  Exactness
against the per-packet reference walk (``reference_walk.py``) and linear
search lives in ``test_property_based.py`` and
``test_engine_differential.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference_walk
from repro.baselines import (
    CutSplitBuilder,
    EffiCutsBuilder,
    HiCutsBuilder,
    LinearSearchBuilder,
)
from repro.classbench import generate_classifier
from repro.engine import (
    KIND_CUT,
    KIND_LEAF,
    LEAF_RULE_DTYPE,
    NODE_DTYPE,
    RULE_DTYPE,
    RULE_TABLE_DTYPE,
    CompileError,
    CompiledClassifier,
    FlatTree,
    Forest,
    compile_classifier,
    compile_tree,
    packets_to_array,
    rule_table,
)
from repro.engine.compile import _Cut, _Flattener, _Leaf, _Split
from repro.exceptions import InvalidRangeError
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import CutAction, DecisionTree


def _tree_from_records(nodes, leaf_rules, depth, max_leaf_span):
    """A one-tree forest assembled from structured rows."""
    forest = Forest(
        {name: np.ascontiguousarray(nodes[name])
         for name in NODE_DTYPE.names},
        {name: np.ascontiguousarray(leaf_rules[name])
         for name in RULE_DTYPE.names},
        rule_table([]),
    )
    return FlatTree(forest, 0, len(nodes), 0, len(leaf_rules),
                    depth, max_leaf_span)


@pytest.fixture(scope="module")
def efficuts():
    ruleset = generate_classifier("fw1", 150, seed=0)
    compiled = compile_classifier(EffiCutsBuilder(binth=8).build(ruleset))
    values = packets_to_array(
        ruleset.sample_packets(600, seed=7, rule_bias=0.8))
    return compiled, values


class TestCutArithmetic:
    def test_every_offset_of_every_uneven_cut(self):
        # One cut node over [lo, lo + span) of the protocol field with k
        # leaf children: ``rem`` children of ``base + 1`` values, then
        # ``base``-value children.  The walk must send every value to the
        # child whose interval holds it.
        lo = 3
        for span in range(2, 41):
            values = np.zeros((span, 5), dtype=np.int64)
            values[:, Dimension.PROTOCOL] = lo + np.arange(span)
            for k in range(2, span + 1):
                base, rem = divmod(span, k)
                nodes = np.zeros(k + 1, dtype=NODE_DTYPE)
                nodes[0] = (KIND_CUT, Dimension.PROTOCOL, lo, base, rem, 1, k)
                nodes["kind"][1:] = KIND_LEAF
                tree = _tree_from_records(
                    nodes, np.empty(0, dtype=RULE_DTYPE), 1, 0)
                widths = [base + 1] * rem + [base] * (k - rem)
                expected = 1 + np.repeat(np.arange(k), widths)
                np.testing.assert_array_equal(tree.descend(values), expected)
                np.testing.assert_array_equal(
                    reference_walk.descend(tree, values), expected)


class TestTreeAxisReduce:
    @pytest.fixture()
    def two_trees(self):
        # Two search trees whose answers for the probe packet are different
        # rules of equal priority ("filler" only makes the first tree worth
        # cutting, so the two trees also differ in depth).
        first = Rule.from_fields(src_ip=(0, 1 << 31), priority=7, name="a")
        filler = Rule.from_fields(src_ip=(1 << 31, 1 << 32), dst_port=(9, 10),
                                  priority=1, name="filler")
        second = Rule.from_fields(dst_port=(0, 1024), priority=7, name="b")
        rule_slot, rules_out, flats = {}, [], []
        for rules in ([first, filler], [second]):
            tree = DecisionTree(RuleSet(rules), leaf_threshold=1,
                                prune_redundant=False)
            if not tree.is_complete():
                tree.apply_action(CutAction(Dimension.SRC_IP, 4))
            tree.truncate()
            flats.extend(compile_tree(tree, rule_slot, rules_out))
        assert [flat.depth for flat in flats] == [1, 0]
        probe = packets_to_array([Packet(5, 0, 0, 80, 6)])
        return flats, rules_out, probe

    def test_earlier_tree_wins_equal_priority(self, two_trees):
        flats, rules, probe = two_trees
        forward = CompiledClassifier(subtrees=flats, rules=rules)
        swapped = CompiledClassifier(subtrees=flats[::-1], rules=rules)
        assert rules[forward.match_indices(probe)[0]].name == "a"
        assert rules[swapped.match_indices(probe)[0]].name == "b"
        # The per-packet reference walk breaks the tie the same way.
        for compiled, winner in ((forward, "a"), (swapped, "b")):
            index = reference_walk.match_indices(compiled, probe)[0]
            assert rules[index].name == winner

    def test_hit_in_a_later_tree_only(self, two_trees):
        flats, rules, _ = two_trees
        compiled = CompiledClassifier(subtrees=flats, rules=rules)
        probe = packets_to_array([Packet((1 << 31) + 5, 0, 0, 80, 6),
                                  Packet((1 << 31) + 5, 0, 0, 4000, 6)])
        found = compiled.match_indices(probe)
        assert rules[found[0]].name == "b"
        assert found[1] == -1


class TestDepthGuardIsPerTree:
    def test_shallow_tree_cannot_hide_behind_a_deep_neighbour(self, efficuts):
        compiled, values = efficuts
        deepest = max(tree.depth for tree in compiled.subtrees)
        position, shallow = next(
            (i, tree) for i, tree in enumerate(compiled.subtrees)
            if 3 <= tree.depth <= deepest - 2)
        understated = dataclasses.replace(shallow, depth=0)
        # On its own the understated tree is refused on these packets...
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            understated.descend(values)
        # ...and so it must be inside a forest whose maximum depth is fine.
        subtrees = list(compiled.subtrees)
        subtrees[position] = understated
        corrupt = CompiledClassifier(subtrees=subtrees, rules=compiled.rules)
        assert corrupt.depth == deepest  # the forest maximum is unchanged
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            corrupt.match_indices(values)
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            reference_walk.match_indices(corrupt, values)
        # The intact engine over the same blocks answers normally.
        intact = CompiledClassifier(subtrees=compiled.subtrees,
                                    rules=compiled.rules)
        np.testing.assert_array_equal(intact.match_indices(values),
                                      compiled.match_indices(values))


class TestFieldEnds:
    """The box's ``hi`` is stored inclusive: the last value of every field
    and the last value of a rule's range must still match, the value one
    past a range must not."""

    #: One rule bounded in every field, each range ending one past
    #: ``_INSIDE``, over a wildcard of lower priority that catches what it
    #: misses; the fillers, far from every probe, make the builders cut
    #: (and CutSplit split) rather than stop at one leaf.
    _INSIDE = (0x0A000000, 0xFFFFFFFE, 1023, 65534, 16)
    _BOUNDED = Rule.from_fields(
        src_ip=(0x0A000000 - 4, 0x0A000001), dst_ip=(0xFFFFFF00, 0xFFFFFFFF),
        src_port=(1000, 1024), dst_port=(80, 65535), protocol=(6, 17),
        priority=2, name="bounded")
    _WILDCARD = Rule.from_fields(priority=1, name="wildcard")
    _FILLERS = [Rule.from_fields(src_ip=(i << 24, (i + 1) << 24),
                                 dst_port=(i, i + 1), priority=3)
                for i in range(6)]

    @pytest.fixture(params=[
        LinearSearchBuilder, lambda: HiCutsBuilder(binth=2),
        lambda: CutSplitBuilder(binth=2), lambda: EffiCutsBuilder(binth=2)],
        ids=["linear", "hicuts", "cutsplit", "efficuts"])
    def ruleset_and_engine(self, request):
        ruleset = RuleSet([self._BOUNDED, self._WILDCARD, *self._FILLERS])
        return ruleset, compile_classifier(request.param().build(ruleset))

    def _probes(self):
        field_max = (0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 255)
        probes = {"field maxima": (field_max, "wildcard"),
                  "last value of every range": (self._INSIDE, "bounded")}
        for dim in range(5):
            past = list(self._INSIDE)
            past[dim] += 1
            probes[f"one past {Dimension(dim).name}"] = (tuple(past),
                                                         "wildcard")
        return probes

    def test_every_path_agrees_at_the_field_ends(self, ruleset_and_engine):
        ruleset, compiled = ruleset_and_engine
        probes = self._probes()
        values = np.array([header for header, _ in probes.values()],
                          dtype=np.int64)
        fused = compiled.match_indices(values)
        reference = reference_walk.match_indices(compiled, values)
        for (label, (header, winner)), f, r in zip(probes.items(), fused,
                                                   reference):
            assert compiled.rules[f].name == winner, label
            assert compiled.rules[r].name == winner, label
            assert ruleset.classify(Packet(*header)).name == winner, label

    def test_no_match_one_past_a_range_without_a_wildcard(self):
        compiled = compile_classifier(
            LinearSearchBuilder().build(RuleSet([self._BOUNDED])))
        inside = np.array([self._INSIDE], dtype=np.int64)
        past = inside + np.eye(5, dtype=np.int64)
        assert compiled.match_indices(inside).tolist() == [0]
        assert compiled.match_indices(past).tolist() == [-1] * 5
        assert reference_walk.match_indices(compiled, past).tolist() \
            == [-1] * 5


def _reachable_arrays(root):
    """Every distinct ndarray reachable from ``root`` through attributes,
    mappings and sequences (views resolved to the array owning the data)."""
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return list(found.values())


class TestFootprint:
    @pytest.mark.parametrize("family,num_rules,builder,expected", [
        ("acl1", 150, HiCutsBuilder, 12682),
        ("fw1", 500, EffiCutsBuilder, 60658),
    ], ids=["hicuts-acl1-150", "efficuts-fw1-500"])
    def test_memory_bytes_is_pinned(self, family, num_rules, builder,
                                    expected):
        # Re-pinned on purpose when the tables went to header width: the
        # same classifiers were 21,502 / 98,750 bytes as 34-byte node rows
        # and 88-byte (int64) rule rows, and 55,526 / 249,918 before that,
        # as 50-byte node rows plus a 92-byte rule copy per leaf row.
        ruleset = generate_classifier(family, num_rules, seed=1000)
        compiled = compile_classifier(builder(binth=8).build(ruleset))
        assert compiled.memory_bytes() == expected
        assert (NODE_DTYPE.itemsize, RULE_DTYPE.itemsize,
                RULE_TABLE_DTYPE.itemsize) == (22, 4, 44)
        leaf_rows = sum(tree.num_leaf_rules for tree in compiled.subtrees)
        assert compiled.memory_bytes() == (
            compiled.num_nodes * 22        # kind, dim, lo, base, rem, start,
                                           # count per node
            + leaf_rows * 4                # int32 rule slots held by leaves
            + len(compiled.rules) * 44)    # uint32 lo[5], hi[5] and an
                                           # int32 priority per rule

    @pytest.mark.parametrize("builder", [HiCutsBuilder, EffiCutsBuilder])
    def test_memory_bytes_counts_every_reachable_array(self, builder):
        ruleset = generate_classifier("fw1", 150, seed=0)
        compiled = compile_classifier(builder(binth=8).build(ruleset))
        forest = compiled.forest
        arrays = _reachable_arrays(forest)
        assert len(arrays) == len(NODE_DTYPE.names) \
            + len(RULE_DTYPE.names) + len(RULE_TABLE_DTYPE.names)
        assert compiled.memory_bytes() == sum(a.nbytes for a in arrays)
        table_bytes = sum(a.nbytes for a in _reachable_arrays(forest.table))
        assert table_bytes == len(compiled.rules) * RULE_TABLE_DTYPE.itemsize
        assert compiled.memory_bytes() == table_bytes + sum(
            tree.memory_bytes() for tree in compiled.subtrees)

    def test_columns_have_the_schema_widths(self, efficuts):
        compiled, _ = efficuts
        forest = compiled.forest
        leaf_rows = sum(tree.num_leaf_rules for tree in compiled.subtrees)
        for columns, schema, rows in (
                (forest.node, NODE_DTYPE, compiled.num_nodes),
                (forest.rule, RULE_DTYPE, leaf_rows),
                (forest.table, RULE_TABLE_DTYPE, len(compiled.rules))):
            assert list(columns) == list(schema.names)
            for name in schema.names:
                field = schema[name]
                assert columns[name].dtype == field.base
                assert columns[name].shape == (rows,) + field.shape

    def test_wrong_width_column_is_refused(self, efficuts):
        compiled, _ = efficuts
        forest = compiled.forest
        node = dict(forest.node)
        node["kind"] = node["kind"].astype(np.int64)
        with pytest.raises(TypeError, match="kind"):
            Forest(node, forest.rule, forest.table)
        # The 32-bit node columns and the rule table are held to theirs too.
        node = dict(forest.node)
        node["lo"] = node["lo"].astype(np.int64)
        with pytest.raises(TypeError, match="node column 'lo'"):
            Forest(node, forest.rule, forest.table)
        table = dict(forest.table)
        table["hi"] = table["hi"].astype(np.int32)
        with pytest.raises(TypeError, match="rule table column 'hi'"):
            Forest(forest.node, forest.rule, table)
        with pytest.raises(TypeError, match="leaf rule column 'rule_index'"):
            Forest(forest.node,
                   {"rule_index": forest.rule["rule_index"].astype(np.int64)},
                   forest.table)

    @pytest.mark.parametrize("field,value", [
        ("lo", 1 << 32), ("base", 1 << 32), ("rem", -1), ("point", 1 << 32)])
    def test_value_beyond_its_column_is_refused_at_compile(self, field,
                                                           value):
        # No header field is wider than 32 bits, so no tree the builders
        # produce gets here; a row that would wrap must not be stored.  A
        # split row stores its point in ``lo``.
        params = {"lo": 0, "base": 1, "rem": 0}
        if field == "point":
            field = "lo"
            root = _Split(dim=0, point=value, children=[_Leaf([]), _Leaf([])])
        else:
            params[field] = value
            root = _Cut(dim=0, children=[_Leaf([]), _Leaf([])], **params)
        flattener = _Flattener({}, [])
        flattener.add(root)
        with pytest.raises(CompileError, match=f"node column '{field}'"):
            flattener.trees()

    def test_priority_beyond_its_column_is_refused_at_compile(self):
        wide = Rule.from_fields(priority=1 << 31, name="wide")
        with pytest.raises(CompileError, match="'priority'"):
            rule_table([wide])
        tree = DecisionTree(RuleSet([wide]), leaf_threshold=1)
        with pytest.raises(CompileError, match="'priority'"):
            compile_tree(tree)
        # The widest priority that fits still compiles.
        fits = Rule.from_fields(priority=(1 << 31) - 1)
        assert rule_table([fits])["priority"][0] == (1 << 31) - 1

    def test_rule_table_shorter_than_its_prefix_is_refused(self, efficuts):
        compiled, _ = efficuts
        with pytest.raises(ValueError, match="rule table describes"):
            CompiledClassifier(subtrees=compiled.subtrees,
                               rules=compiled.rules[:-1])


class TestReadOnly:
    def test_forest_columns_are_not_writeable(self, efficuts):
        compiled, _ = efficuts
        forest = compiled.forest
        columns = [*forest.node.values(), *forest.rule.values(),
                   *forest.table.values()]
        assert len(columns) == len(NODE_DTYPE.names) \
            + len(RULE_DTYPE.names) + len(RULE_TABLE_DTYPE.names)
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0

    def test_record_arrays_are_detached_copies(self, efficuts):
        compiled, values = efficuts
        before = compiled.match_indices(values)
        tree = compiled.subtrees[0]
        assert tree.nodes.dtype == NODE_DTYPE
        assert tree.leaf_rules.dtype == LEAF_RULE_DTYPE
        scratch = tree.nodes
        scratch["kind"] = KIND_LEAF
        assert (tree.nodes["kind"] != KIND_LEAF).any()
        np.testing.assert_array_equal(compiled.match_indices(values), before)


class TestHeaderCheck:
    @pytest.fixture(scope="class")
    def engine(self):
        ruleset = generate_classifier("fw5", 300, seed=1000)
        compiled = compile_classifier(EffiCutsBuilder(binth=8).build(ruleset))
        values = packets_to_array(ruleset.sample_packets(64, seed=2))
        return compiled, values

    def test_protocol_beyond_eight_bits(self, engine):
        compiled, values = engine
        bad = values.copy()
        bad[17, Dimension.PROTOCOL] = 300
        with pytest.raises(InvalidRangeError,
                           match=r"packet 17: field PROTOCOL=300"):
            compiled.match_indices(bad)

    def test_sixteen_bit_values_in_every_column(self, engine):
        compiled, _ = engine
        bad = np.random.default_rng(0).integers(
            256, 1 << 16, size=(500, 5), dtype=np.int64)
        with pytest.raises(InvalidRangeError,
                           match=r"packet 0: field PROTOCOL"):
            compiled.match_indices(bad)

    def test_unsigned_value_is_reported_as_given(self, engine):
        # Checked before any cast: an int64 copy would read -2**63 here.
        compiled, _ = engine
        bad = np.array([[1 << 63, 0, 0, 0, 0]], dtype=np.uint64)
        as_given = r"packet 0: field SRC_IP=9223372036854775808 out of range"
        with pytest.raises(InvalidRangeError, match=as_given):
            compiled.match_indices(bad)
        # An in-range unsigned matrix is served like its int64 twin.
        _, values = engine
        np.testing.assert_array_equal(
            compiled.match_indices(values.astype(np.uint64)),
            compiled.match_indices(values))

    def test_negative_value(self, engine):
        compiled, values = engine
        bad = values.copy()
        bad[3, Dimension.SRC_IP] = -5
        with pytest.raises(InvalidRangeError,
                           match=r"packet 3: field SRC_IP=-5"):
            compiled.match_indices(bad)

    def test_wrong_shape(self, engine):
        compiled, values = engine
        with pytest.raises(InvalidRangeError, match=r"\(64, 4\)"):
            compiled.match_indices(values[:, :4])
        with pytest.raises(InvalidRangeError, match="header matrix"):
            compiled.match_indices(values[0])
        with pytest.raises(InvalidRangeError, match="integer"):
            compiled.match_indices(values.astype(np.float64))

    def test_per_tree_lookups_check_too(self, engine):
        compiled, values = engine
        bad = values.copy()
        bad[0, Dimension.DST_PORT] = 1 << 16
        with pytest.raises(InvalidRangeError, match="DST_PORT"):
            compiled.subtrees[0].lookup(bad)
        with pytest.raises(InvalidRangeError, match="DST_PORT"):
            compiled.subtrees[0].descend(bad)

    def test_empty_batch_passes(self, engine):
        compiled, values = engine
        assert compiled.match_indices(values[:0]).shape == (0,)

    def test_flow_cache_stores_nothing_from_a_refused_batch(self, engine):
        compiled, values = engine
        cached = CompiledClassifier(subtrees=compiled.subtrees,
                                    rules=compiled.rules,
                                    flow_cache_size=128)
        cache = cached.flow_cache
        # A warm cache of ten flows, the oldest first in LRU order.
        cached.lookup_batch(values[:10])
        stats = dataclasses.replace(cache.stats)
        entries = cache.entries()
        assert (stats.hits, stats.misses, len(entries)) == (0, 10, 10)
        # Fifty rows: the ten cached flows newest first, then forty new
        # flows, one of them out of range.
        bad = np.concatenate([values[9::-1], values[10:50]])
        bad[40, Dimension.PROTOCOL] = 300
        with pytest.raises(InvalidRangeError, match="PROTOCOL=300"):
            cached.lookup_batch(bad)
        # Neither a counter, nor an entry, nor the LRU order moved.
        assert cache.stats == stats
        assert cache.entries() == entries
        # The same engine still serves, and caches, the well-formed batch.
        np.testing.assert_array_equal(cached.lookup_batch(values),
                                      compiled.match_indices(values))
        assert (cache.stats.hits, cache.stats.misses) == (10, 10 + 54)
        assert len(cache) == 64

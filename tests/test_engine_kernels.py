"""Native traversal kernels: backend registry, kernel tables, exactness.

The kernels in :mod:`repro.engine.kernels` are jitted with numba where it is
installed and run as plain Python over the same unstructured views where it
is not — byte-identical either way.  These tests therefore exercise the
kernel *code path* on every machine: FlatTree-level ``backend="numba"``
calls and a dispatcher whose ``backend`` attribute is forced to ``"numba"``
both route through the kernels regardless of whether the JIT is present.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.baselines import EffiCutsBuilder, HiCutsBuilder
from repro.classbench import generate_classifier
from repro.engine import (
    ENGINE_BACKENDS,
    NUMBA_AVAILABLE,
    available_backends,
    packets_to_array,
    resolve_backend,
)
from repro.engine import kernels
from repro.engine.layout import (
    COL_CHILD_START,
    COL_KIND,
    COL_RULE_END,
    KIND_LEAF,
    NUM_NODE_COLUMNS,
)
from repro.exceptions import EngineBackendError
from repro.rules import Dimension, Packet, Rule, RuleSet
from repro.tree import CutAction, DecisionTree, TreeClassifier


@contextmanager
def kernel_path(compiled):
    """Force the dispatcher down the kernels code path.

    Bypasses :func:`resolve_backend` on purpose: the kernels are callable
    plain Python without numba, which is exactly what lets every machine
    run the differential below.
    """
    saved = compiled.backend
    compiled.backend = "numba"
    try:
        yield compiled
    finally:
        compiled.backend = saved


@pytest.fixture(scope="module")
def single_tree():
    ruleset = generate_classifier("acl1", 120, seed=3)
    classifier = HiCutsBuilder(binth=8).build(ruleset)
    packets = ruleset.sample_packets(600, seed=7, rule_bias=0.8)
    return classifier, packets_to_array(packets)


@pytest.fixture(scope="module")
def multi_tree():
    ruleset = generate_classifier("fw1", 120, seed=0)
    classifier = EffiCutsBuilder(binth=8).build(ruleset)
    packets = ruleset.sample_packets(600, seed=7, rule_bias=0.8)
    return classifier, packets_to_array(packets)


class TestBackendRegistry:
    def test_registry_names(self):
        assert ENGINE_BACKENDS == ("numpy", "numba", "auto")
        concrete = available_backends()
        assert concrete[0] == "numpy"
        assert ("numba" in concrete) == NUMBA_AVAILABLE

    def test_numpy_resolves_to_itself(self):
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(EngineBackendError, match="unknown engine backend"):
            resolve_backend("cython")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_explicit_numba_without_numba_raises(self, single_tree):
        classifier, _ = single_tree
        with pytest.raises(EngineBackendError, match="repro\\[native\\]"):
            resolve_backend("numba")
        with pytest.raises(EngineBackendError):
            classifier.compile().set_backend("numba")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
    def test_auto_falls_back_with_one_warning(self):
        kernels._warned_auto_fallback = False
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_backend("auto") == "numpy"
            assert resolve_backend("auto") == "numpy"
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="needs numba")
    def test_auto_prefers_numba(self):
        assert resolve_backend("auto") == "numba"

    def test_set_backend_is_pure_dispatch(self, single_tree):
        classifier, values = single_tree
        compiled = classifier.compile()
        before = compiled.match_indices(values)
        resolved = compiled.set_backend("auto")
        assert resolved in ("numpy", "numba")
        assert compiled.backend == resolved
        np.testing.assert_array_equal(compiled.match_indices(values), before)
        compiled.set_backend("numpy")


class TestKernelTables:
    def test_shape_dtype_and_contiguity(self, single_tree):
        classifier, _ = single_tree
        tree = classifier.compile().subtrees[0]
        tables = tree.kernel_tables()
        assert tables.nodes.shape == (tree.num_nodes, NUM_NODE_COLUMNS)
        for array in (tables.nodes, tables.leaf_lo, tables.leaf_hi,
                      tables.leaf_priority, tables.leaf_rule_index):
            assert array.dtype == np.int64
            assert array.flags["C_CONTIGUOUS"]
        assert tables.leaf_lo.shape == (tree.num_leaf_rules, 5)
        nodes = tree.nodes
        np.testing.assert_array_equal(tables.nodes[:, COL_KIND],
                                      nodes["kind"])
        np.testing.assert_array_equal(tables.nodes[:, COL_CHILD_START],
                                      nodes["child_start"])
        np.testing.assert_array_equal(tables.nodes[:, COL_RULE_END],
                                      nodes["rule_end"])

    def test_tables_are_cached_per_tree(self, single_tree):
        classifier, _ = single_tree
        tree = classifier.compile().subtrees[0]
        assert tree.kernel_tables() is tree.kernel_tables()


class TestKernelExactness:
    @pytest.mark.parametrize("fixture", ["single_tree", "multi_tree"])
    def test_per_tree_descend_and_lookup_match_numpy(self, fixture, request):
        classifier, values = request.getfixturevalue(fixture)
        for tree in classifier.compile().subtrees:
            np.testing.assert_array_equal(
                tree.descend(values, backend="numba"), tree.descend(values))
            np.testing.assert_array_equal(
                tree.lookup(values, backend="numba"), tree.lookup(values))

    @pytest.mark.parametrize("fixture", ["single_tree", "multi_tree"])
    def test_match_indices_byte_identical(self, fixture, request):
        classifier, values = request.getfixturevalue(fixture)
        compiled = classifier.compile()
        reference = compiled.match_indices(values)
        with kernel_path(compiled):
            np.testing.assert_array_equal(compiled.match_indices(values),
                                          reference)

    def test_empty_batch(self, single_tree):
        classifier, _ = single_tree
        compiled = classifier.compile()
        empty = packets_to_array([])
        tree = compiled.subtrees[0]
        assert tree.descend(empty, backend="numba").shape == (0,)
        assert tree.lookup(empty, backend="numba").shape == (0,)
        with kernel_path(compiled):
            assert compiled.match_indices(empty).shape == (0,)
            assert compiled.classify_batch([]) == []

    def test_all_miss_batch(self):
        # Every rule pins protocol 6; UDP packets must miss on every
        # backend (no default wildcard rule to fall back to).
        rules = [
            Rule.from_fields(src_ip=(i * 16, (i + 1) * 16), protocol=(6, 7),
                             priority=i + 1, name=f"r{i}")
            for i in range(8)
        ]
        ruleset = RuleSet(rules, name="tcp-only")
        tree = DecisionTree(ruleset, leaf_threshold=2, prune_redundant=False)
        tree.apply_action(CutAction(dimension=Dimension.SRC_IP, num_cuts=4))
        tree.truncate()
        compiled = TreeClassifier(ruleset, [tree]).compile()
        misses = packets_to_array(
            [Packet(i * 16, 0, 0, 0, 17) for i in range(8)])
        reference = compiled.match_indices(misses)
        assert (reference == -1).all()
        with kernel_path(compiled):
            np.testing.assert_array_equal(compiled.match_indices(misses),
                                          reference)
        assert compiled.classify_batch(misses) == [None] * len(misses)


class TestDepthOverrun:
    @pytest.fixture()
    def corrupt_tree(self, single_tree):
        classifier, values = single_tree
        tree = classifier.compile().subtrees[0]
        assert tree.depth >= 2, "fixture tree too shallow to under-declare"
        # Same block, recorded depth of zero: a well-formed descent now
        # exceeds the declared bound, which both backends must refuse.
        return dataclasses.replace(tree, depth=0), values

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_descend_overrun_raises(self, corrupt_tree, backend):
        tree, values = corrupt_tree
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            tree.descend(values, backend=backend)

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_lookup_overrun_raises(self, corrupt_tree, backend):
        tree, values = corrupt_tree
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            tree.lookup(values, backend=backend)

    def test_match_into_overrun_raises(self, corrupt_tree):
        tree, values = corrupt_tree
        from repro.engine.layout import NO_MATCH_PRIORITY

        best_priority = np.full(len(values), NO_MATCH_PRIORITY,
                                dtype=np.int64)
        best_rule = np.full(len(values), -1, dtype=np.int64)
        with pytest.raises(RuntimeError,
                           match="deeper than its recorded depth"):
            kernels.match_into(tree, values, best_priority, best_rule)

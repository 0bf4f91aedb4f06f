"""Compiled dataplane engine.

Tree *construction* (NeuroCuts training, the baseline heuristics) produces
:class:`~repro.tree.lookup.TreeClassifier` objects made of Python ``Node``
graphs; this package is the *execution* side: it compiles any such
classifier into one forest of flat NumPy column arrays and classifies whole
packet batches with a single vectorised, level-synchronous walk over every
search tree, an optional LRU flow cache, and a throughput benchmark harness.

Typical use::

    compiled = classifier.compile()          # TreeClassifier -> engine
    matches = compiled.classify_batch(trace) # one Rule (or None) per packet

or, for the raw array path, ``compiled.lookup_batch(values)`` with an
``(n, 5)`` integer header matrix.
"""

from repro.engine.layout import (
    KIND_CUT,
    KIND_LEAF,
    KIND_SPLIT,
    LEAF_RULE_DTYPE,
    NODE_DTYPE,
    NO_MATCH_PRIORITY,
    RULE_DTYPE,
    RULE_TABLE_DTYPE,
    FlatTree,
    Forest,
    packets_to_array,
    rule_table,
)
from repro.engine.compile import (
    MAX_SEARCH_TREES,
    CompileError,
    CompileProvenance,
    PartialCompileResult,
    compile_classifier,
    compile_tree,
    partial_compile_classifier,
)
from repro.engine.cache import (
    DEFAULT_FLOW_CACHE_SIZE,
    FlowCache,
    FlowCacheStats,
)
from repro.engine.dispatch import CompiledClassifier
from repro.engine.bench import (
    EngineBenchResult,
    bench_classifier,
)

__all__ = [
    "KIND_CUT",
    "KIND_LEAF",
    "KIND_SPLIT",
    "LEAF_RULE_DTYPE",
    "NODE_DTYPE",
    "NO_MATCH_PRIORITY",
    "RULE_DTYPE",
    "RULE_TABLE_DTYPE",
    "FlatTree",
    "Forest",
    "packets_to_array",
    "rule_table",
    "MAX_SEARCH_TREES",
    "CompileError",
    "CompileProvenance",
    "PartialCompileResult",
    "compile_classifier",
    "compile_tree",
    "partial_compile_classifier",
    "DEFAULT_FLOW_CACHE_SIZE",
    "FlowCache",
    "FlowCacheStats",
    "CompiledClassifier",
    "EngineBenchResult",
    "bench_classifier",
]

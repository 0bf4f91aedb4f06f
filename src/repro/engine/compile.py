"""Compilation of interpreter trees into flat search structures.

Compilation happens in three steps:

1. **Partition expansion** — partition nodes (NeuroCuts' top-node partitions
   and EffiCuts category splits) require consulting *every* child, which has
   no place in a single-descent flat tree.  Each partition node is expanded
   into one independent search tree per child; the dispatcher queries all of
   them and keeps the highest-priority match, which is exactly the
   interpreter's partition semantics.
2. **Normalisation** — every cut-family action is rewritten into the two
   primitive node shapes the flat layout supports: a multi-dimension cut
   becomes a chain of single-dimension cut levels (children ordered the same
   row-major way the interpreter orders the cut's cartesian product), and a
   split keeps its single boundary point.
3. **Flattening** — the normalised tree is laid out breadth-first into the
   node table's columns, so every node's children occupy one contiguous
   index span, and the per-leaf rule lists are concatenated (highest
   priority first) into the leaf rule table as slots into the engine's
   distinct-rule table.

The result is a :class:`~repro.engine.dispatch.CompiledClassifier` whose
one :class:`~repro.engine.layout.Forest` holds a block — viewed through a
:class:`~repro.engine.layout.FlatTree` — per partition of each tree of the
source classifier.

**Partial recompilation.**  :func:`compile_classifier` records a
:class:`CompileProvenance` on its result — which source tree produced which
span of flat trees, at which version, from which expanded roots — and
:func:`partial_compile_classifier` uses it to rebuild *only* the subtrees
whose rules changed: the blocks of untouched subtrees are copied row for row
from the previous forest into the new one, and the shared distinct-rule list
is patched in place (append-only, so the still-serving engine's indices
never move).  Any structural surprise — different tree objects, a partition
that changed its expansion, clones in the expansion — falls back to a full
rebuild, so the fast path can never be wrong, only missed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.rules.rule import Rule
from repro.tree.actions import CutAction, MultiCutAction, SplitAction
from repro.tree.node import Node
from repro.tree.tree import DecisionTree
from repro.engine.layout import (
    KIND_CUT,
    KIND_LEAF,
    KIND_SPLIT,
    NODE_DTYPE,
    RULE_DTYPE,
    CompileError,
    FlatTree,
    Forest,
    rule_table,
)

#: Safety cap on how many search trees one interpreter tree may expand into
#: (partitions below the top of a tree multiply variants).
MAX_SEARCH_TREES = 256


# --------------------------------------------------------------------------- #
# Normalised intermediate nodes
# --------------------------------------------------------------------------- #

@dataclass
class _Leaf:
    rules: List[Rule]


@dataclass
class _Cut:
    dim: int
    lo: int
    base: int
    rem: int
    children: List[object] = field(default_factory=list)


@dataclass
class _Split:
    dim: int
    point: int
    children: List[object] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Step 1: partition expansion
# --------------------------------------------------------------------------- #

def _expand_partitions(node: Node) -> List[Node]:
    """Expand partition nodes into independent single-descent subtrees.

    Returns the roots of the cut/split-only trees equivalent to ``node``.
    A partition above the cut structure simply contributes one tree per
    child; a partition *below* a cut duplicates the path above it once per
    partition child (each duplicate routes packets to a different member of
    the partition), which preserves the all-children-consulted semantics.
    """
    if node.is_leaf:
        return [node]
    if node.is_partition_node:
        expanded: List[Node] = []
        for child in node.children:
            expanded.extend(_expand_partitions(child))
            if len(expanded) > MAX_SEARCH_TREES:
                raise CompileError(
                    "partition structure expands into more than "
                    f"{MAX_SEARCH_TREES} search trees"
                )
        return expanded
    variant_lists = [_expand_partitions(child) for child in node.children]
    total = 1
    for variants in variant_lists:
        total *= len(variants)
        if total > MAX_SEARCH_TREES:
            raise CompileError(
                "partition structure expands into more than "
                f"{MAX_SEARCH_TREES} search trees"
            )
    if total == 1:
        return [node]
    # Cartesian product over per-child variants: each combination is a clone
    # of this node routing into one member of every nested partition.  Note
    # for partial recompilation: clones are fresh objects, so an expansion
    # that reaches this point is *unstable* (see _partition_frontier).
    roots: List[Node] = []
    indices = [0] * len(variant_lists)
    for _ in range(total):
        clone = Node(
            ranges=node.ranges,
            rules=node.rules,
            depth=node.depth,
            partition_state=node.partition_state,
            efficuts_category=node.efficuts_category,
        )
        clone.action = node.action
        clone.children = [variants[i] for variants, i
                          in zip(variant_lists, indices)]
        roots.append(clone)
        for pos in range(len(indices) - 1, -1, -1):
            indices[pos] += 1
            if indices[pos] < len(variant_lists[pos]):
                break
            indices[pos] = 0
    return roots


def _partition_frontier(node: Node) -> List[Node]:
    """The nodes just below the tree's partition structure, in tree order.

    Descends through partition nodes only.  When no partition sits *below*
    a cut, :func:`_expand_partitions` returns exactly these nodes (by
    identity, no clones) — the *stable* case partial recompilation needs:
    every frontier node is a live node of the interpreter tree that rule
    updates mutate in place, so "which subtree did this delta touch" is
    answerable by looking at the frontier nodes' rule lists.
    """
    if not node.is_leaf and node.is_partition_node:
        frontier: List[Node] = []
        for child in node.children:
            frontier.extend(_partition_frontier(child))
        return frontier
    return [node]


# --------------------------------------------------------------------------- #
# Step 2: normalisation
# --------------------------------------------------------------------------- #

def _cut_params(node: Node, dim: int, num_children: int) -> Tuple[int, int, int]:
    """(lo, base, rem) of an equal cut of ``node`` along ``dim``."""
    lo, hi = node.ranges[dim]
    span = hi - lo
    if num_children < 2 or span < num_children:
        raise CompileError(
            f"cut with {num_children} children over a span of {span} values"
        )
    return lo, span // num_children, span % num_children


def _normalize(node: Node) -> object:
    """Rewrite one expanded node into the primitive _Leaf/_Cut/_Split shapes."""
    if node.is_leaf:
        # Highest priority first so the first match inside a leaf wins.
        return _Leaf(rules=sorted(node.rules, key=lambda r: -r.priority))
    action = node.action
    children = node.children
    if isinstance(action, CutAction):
        lo, base, rem = _cut_params(node, int(action.dimension), len(children))
        return _Cut(dim=int(action.dimension), lo=lo, base=base, rem=rem,
                    children=[_normalize(c) for c in children])
    if isinstance(action, SplitAction):
        return _Split(dim=int(action.dimension), point=action.split_point,
                      children=[_normalize(c) for c in children])
    if isinstance(action, MultiCutAction):
        return _normalize_multicut(node)
    raise CompileError(f"cannot compile action {action!r}")


def _normalize_multicut(node: Node) -> object:
    """Decompose a multi-dimension cut into a chain of single-dimension cuts.

    The interpreter orders a multicut's children as the row-major cartesian
    product of the per-dimension sub-ranges; the chain reproduces that
    ordering, so grid cell ``(i0, i1, ...)`` resolves to the same child.
    """
    assert isinstance(node.action, MultiCutAction)
    specs = []
    for dim, requested in node.action.cuts:
        lo, hi = node.ranges[int(dim)]
        effective = min(requested, hi - lo)
        lo, base, rem = _cut_params(node, int(dim), effective)
        specs.append((int(dim), lo, base, rem, effective))
    expected = 1
    for spec in specs:
        expected *= spec[4]
    if expected != len(node.children):
        raise CompileError(
            f"multicut fan-out mismatch: grid has {expected} cells, "
            f"node has {len(node.children)} children"
        )

    def build(level: int, prefix: int) -> _Cut:
        dim, lo, base, rem, effective = specs[level]
        cut = _Cut(dim=dim, lo=lo, base=base, rem=rem)
        for i in range(effective):
            cell = prefix * effective + i
            if level == len(specs) - 1:
                cut.children.append(_normalize(node.children[cell]))
            else:
                cut.children.append(build(level + 1, cell))
        return cut

    return build(0, 0)


# --------------------------------------------------------------------------- #
# Step 3: flattening
# --------------------------------------------------------------------------- #

#: Smallest and largest value each node column's width can hold.
_NODE_MIN = np.array([np.iinfo(NODE_DTYPE[name]).min
                      for name in NODE_DTYPE.names])
_NODE_MAX = np.array([np.iinfo(NODE_DTYPE[name]).max
                      for name in NODE_DTYPE.names])


class _Flattener:
    """Lays normalised trees out breadth-first, one block of rows each.

    Rows are collected for all the trees of a compile and converted to one
    :class:`Forest` at the end (:meth:`trees`): NumPy's per-call cost is
    paid once per engine, not once per search tree, and rule geometry is
    converted once per rule new to ``rules_out`` (``table`` describes the
    ones a previous generation already converted).

    ``rule_slot`` keys are the (frozen, hashable) rules themselves, not
    object ids: ids of dead objects get recycled, which would silently
    alias two different rules across the generations of a partially
    recompiled classifier.  Keying by value also dedupes equal rules, which
    is sound because equal rules match identically at equal priority.
    """

    def __init__(self, rule_slot: Dict[Rule, int], rules_out: List[Rule],
                 table: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self.rule_slot = rule_slot
        self.rules_out = rules_out
        self.table = table
        self.records: List[tuple] = []  # one NODE_DTYPE-ordered row per node
        self.leaf_slots: List[int] = []  # distinct-rule slot per leaf row
        #: Per tree: FlatTree's fields after ``forest``.
        self.blocks: List[Tuple[int, int, int, int, int, int]] = []

    def add(self, root: object) -> None:
        """Append one tree's block; its indices are relative to the block."""
        records, leaf_slots = self.records, self.leaf_slots
        rule_slot, rules_out = self.rule_slot, self.rules_out
        node_offset, rule_offset = len(records), len(leaf_slots)
        queue = deque([(root, 0)])
        next_index = 1
        depth = 0
        max_span = 0
        while queue:
            node, depth = queue.popleft()  # breadth-first: never decreases
            if isinstance(node, _Leaf):
                start = len(leaf_slots) - rule_offset
                for rule in node.rules:
                    slot = rule_slot.get(rule)
                    if slot is None:
                        slot = rule_slot[rule] = len(rules_out)
                        rules_out.append(rule)
                    leaf_slots.append(slot)
                records.append((KIND_LEAF, 0, 0, 0, 0, start,
                                len(node.rules)))
                max_span = max(max_span, len(node.rules))
                continue
            start = next_index
            children = node.children
            next_index += len(children)
            queue.extend((child, depth + 1) for child in children)
            if isinstance(node, _Cut):
                if node.base < 1:
                    raise CompileError("cut node with zero-width children")
                records.append(
                    (KIND_CUT, node.dim, node.lo, node.base, node.rem,
                     start, len(children))
                )
            else:
                assert isinstance(node, _Split)
                records.append(
                    (KIND_SPLIT, node.dim, node.point, 0, 0,
                     start, len(children))
                )
        self.blocks.append((node_offset, len(records) - node_offset,
                            rule_offset, len(leaf_slots) - rule_offset,
                            depth, max_span))

    def trees(self) -> List[FlatTree]:
        """The trees added so far, as views of one new forest."""
        table = np.array(self.records, dtype=np.int64).reshape(
            len(self.records), len(NODE_DTYPE.names))
        if len(table):
            unfit = (table.min(axis=0) < _NODE_MIN) \
                | (table.max(axis=0) > _NODE_MAX)
            if unfit.any():
                name = NODE_DTYPE.names[int(unfit.argmax())]
                raise CompileError(
                    f"node column {name!r} holds a value that does not fit "
                    f"its {NODE_DTYPE[name]} width")
        node_columns = {
            name: table[:, col].astype(NODE_DTYPE[name])
            for col, name in enumerate(NODE_DTYPE.names)
        }
        slots = np.array(self.leaf_slots, dtype=RULE_DTYPE["rule_index"])
        forest = Forest(node_columns, {"rule_index": slots},
                        rule_table(self.rules_out, self.table))
        return [FlatTree(forest, *block) for block in self.blocks]


# --------------------------------------------------------------------------- #
# Provenance (what partial recompilation needs to remember)
# --------------------------------------------------------------------------- #

@dataclass
class CompileProvenance:
    """How a :class:`CompiledClassifier` was derived from its source trees.

    ``spans[t]`` is the half-open range of ``classifier.subtrees`` compiled
    from source tree ``t`` (one :class:`FlatTree` per expanded root);
    ``roots[t]`` holds that tree's expanded roots when the expansion was
    *stable* (every root is a live node of the interpreter tree — see
    :func:`_partition_frontier`), else ``None``.  ``rule_slot`` is the
    live index into the engine's shared distinct-rule list; partial
    recompiles extend both in place.
    """

    trees: Tuple[DecisionTree, ...]
    versions: Tuple[int, ...]
    spans: Tuple[Tuple[int, int], ...]
    roots: Tuple[Optional[Tuple[Node, ...]], ...]
    rule_slot: Dict[Rule, int]


@dataclass
class PartialCompileResult:
    """What :func:`partial_compile_classifier` did, for metrics and tests."""

    classifier: "CompiledClassifier"  # noqa: F821 - forward ref
    #: True when provenance could not be exploited and everything rebuilt.
    full_rebuild: bool
    #: Source trees whose flat spans were (at least partly) re-flattened.
    trees_recompiled: int
    #: Flat search trees carried into the new engine as block copies.
    subtrees_reused: int
    #: Flat-array node rows actually rebuilt (O(delta), not O(tree)).
    nodes_recompiled: int


def _expand_with_stability(tree: DecisionTree
                           ) -> Tuple[List[Node], Optional[Tuple[Node, ...]]]:
    """Expanded roots of ``tree`` plus their stable form (None if cloned)."""
    roots = _expand_partitions(tree.root)
    frontier = _partition_frontier(tree.root)
    stable = (len(roots) == len(frontier)
              and all(a is b for a, b in zip(roots, frontier)))
    return roots, tuple(roots) if stable else None


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def compile_tree(tree: DecisionTree,
                 rule_slot: Optional[Dict[Rule, int]] = None,
                 rules_out: Optional[List[Rule]] = None) -> List[FlatTree]:
    """Compile one interpreter tree into its flat search trees."""
    flattener = _Flattener(rule_slot if rule_slot is not None else {},
                           rules_out if rules_out is not None else [])
    for sub_root in _expand_partitions(tree.root):
        flattener.add(_normalize(sub_root))
    return flattener.trees()


def compile_classifier(classifier, flow_cache_size: Optional[int] = None):
    """Compile a :class:`~repro.tree.lookup.TreeClassifier` for the engine.

    Returns a :class:`~repro.engine.dispatch.CompiledClassifier` that
    resolves the highest-priority match across every tree and partition in
    one pass over the compiled search trees.  The result carries a
    :class:`CompileProvenance` so later deltas can go through
    :func:`partial_compile_classifier`.
    """
    from repro.engine.dispatch import CompiledClassifier

    rule_slot: Dict[Rule, int] = {}
    rules_out: List[Rule] = []
    flattener = _Flattener(rule_slot, rules_out)
    spans: List[Tuple[int, int]] = []
    roots_record: List[Optional[Tuple[Node, ...]]] = []
    for tree in classifier.trees:
        roots, stable_roots = _expand_with_stability(tree)
        start = len(flattener.blocks)
        for root in roots:
            flattener.add(_normalize(root))
        spans.append((start, len(flattener.blocks)))
        roots_record.append(stable_roots)
    compiled = CompiledClassifier(
        subtrees=flattener.trees(),
        rules=rules_out,
        name=classifier.name,
        flow_cache_size=flow_cache_size,
    )
    compiled.provenance = CompileProvenance(
        trees=tuple(classifier.trees),
        versions=tuple(tree.version for tree in classifier.trees),
        spans=tuple(spans),
        roots=tuple(roots_record),
        rule_slot=rule_slot,
    )
    return compiled


def partial_compile_classifier(
    classifier,
    previous,
    dirty_roots: Optional[set] = None,
    flow_cache_size: Optional[int] = None,
) -> PartialCompileResult:
    """Recompile only what a rule delta touched; copy the rest as blocks.

    ``previous`` is the engine currently compiled from ``classifier``
    (before the delta bumped tree versions); ``dirty_roots`` narrows the
    rebuild to the expanded roots whose rules changed, given as a set of
    ``id(node)`` over the provenance's stable roots.  When provided it is
    *authoritative*: unflagged roots of a version-changed tree are reused
    as they are — a tree's version can move without any of its node rule
    lists changing (e.g. a remove that only touched the shared ruleset of
    a partitioned classifier), and rebuilding such trees would make every
    delta O(classifier) again.  Callers must therefore flag every stable
    root whose rule lists the delta touched, the way
    :meth:`~repro.serve.engines.EngineSlot._dirty_roots_for` does (removes
    mapped *before* the trees mutate, adds after).  ``None`` means the
    delta is unknown — every root of every version-changed tree rebuilds.

    The fast path holds exactly when the delta stayed inside the recorded
    structure: same tree objects, and each changed tree re-expands to the
    *same* root nodes.  Anything else — adopted trees, a partition that
    gained or lost members, clone-producing expansions — returns a full
    rebuild (``full_rebuild=True``), so the answer is always the one
    :func:`compile_classifier` would give.  Either way the result is a
    fresh :class:`CompiledClassifier` with a forest of its own; the
    still-serving ``previous`` is only read (its forest is read-only) apart
    from appends to the shared rule list.

    Slots of rules no leaf holds any more are never reused, so a long-lived
    engine under churn accumulates dead rows in its rule list and table;
    once they outnumber the live ones the result is a full rebuild, which
    numbers its slots afresh.
    """
    def full() -> PartialCompileResult:
        compiled = compile_classifier(
            classifier, flow_cache_size=flow_cache_size)
        return PartialCompileResult(
            classifier=compiled,
            full_rebuild=True,
            trees_recompiled=len(compiled.provenance.trees),
            subtrees_reused=0,
            nodes_recompiled=compiled.num_nodes,
        )

    from repro.engine.dispatch import CompiledClassifier

    provenance: Optional[CompileProvenance] = getattr(
        previous, "provenance", None)
    if provenance is None:
        return full()
    trees = tuple(classifier.trees)
    if len(trees) != len(provenance.trees) or any(
            tree is not prev for tree, prev in zip(trees, provenance.trees)):
        return full()

    rule_slot = provenance.rule_slot
    rules_out = previous.rules  # append-only; previous keeps serving from it
    flattener = _Flattener(rule_slot, rules_out, previous.forest.table)
    #: Reused views of the previous forest; None where a re-flattened tree
    #: goes, in the order the flattener holds them.
    subtrees: List[Optional[FlatTree]] = []
    spans: List[Tuple[int, int]] = []
    roots_record: List[Optional[Tuple[Node, ...]]] = []
    trees_recompiled = 0
    subtrees_reused = 0
    for index, tree in enumerate(trees):
        start, end = provenance.spans[index]
        old_flats = previous.subtrees[start:end]
        span_start = len(subtrees)
        if tree.version == provenance.versions[index]:
            # Untouched by the delta: its flat arrays are still exact.
            subtrees.extend(old_flats)
            subtrees_reused += len(old_flats)
            spans.append((span_start, len(subtrees)))
            roots_record.append(provenance.roots[index])
            continue
        old_roots = provenance.roots[index]
        roots, stable_roots = _expand_with_stability(tree)
        if (old_roots is None or stable_roots is None
                or len(roots) != len(old_roots)
                or any(root is not old
                       for root, old in zip(roots, old_roots))):
            # The delta moved the partition structure itself; the span
            # bookkeeping no longer lines up root-for-root.
            return full()
        tree_rebuilt = False
        for offset, root in enumerate(roots):
            if dirty_roots is not None and id(root) not in dirty_roots:
                subtrees.append(old_flats[offset])
                subtrees_reused += 1
            else:
                flattener.add(_normalize(root))
                subtrees.append(None)
                tree_rebuilt = True
        trees_recompiled += tree_rebuilt
        spans.append((span_start, len(subtrees)))
        roots_record.append(stable_roots)

    rebuilt = iter(flattener.trees())
    compiled = CompiledClassifier(
        subtrees=[tree if tree is not None else next(rebuilt)
                  for tree in subtrees],
        rules=rules_out,
        name=previous.name,
        flow_cache_size=flow_cache_size,
    )
    referenced = np.count_nonzero(
        np.bincount(compiled.forest.rule["rule_index"]))
    if len(rules_out) > 2 * referenced:
        return full()
    compiled.provenance = CompileProvenance(
        trees=trees,
        versions=tuple(tree.version for tree in trees),
        spans=tuple(spans),
        roots=tuple(roots_record),
        rule_slot=rule_slot,
    )
    return PartialCompileResult(
        classifier=compiled,
        full_rebuild=False,
        trees_recompiled=trees_recompiled,
        subtrees_reused=subtrees_reused,
        nodes_recompiled=len(flattener.records),
    )

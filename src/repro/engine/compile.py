"""Compilation of tree-model trees into flat search structures.

Compilation happens in three steps:

1. **Partition expansion** — partition nodes (NeuroCuts' top-node partitions
   and EffiCuts category splits) require consulting *every* child, which has
   no place in a single-descent flat tree.  Each partition node is expanded
   into one independent search tree per child; the dispatcher queries all of
   them and keeps the highest-priority match, which is exactly the
   tree model's partition semantics.
2. **Normalisation** — every cut-family action is rewritten into the two
   primitive node shapes the flat layout supports: a multi-dimension cut
   becomes a chain of single-dimension cut levels (children ordered the same
   row-major way the tree model orders the cut's cartesian product), and a
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

**Partial recompilation.**  A rule update only edits the rule lists of the
leaves it reaches; it never changes a tree's shape.  :func:`compile_classifier`
records a :class:`CompileProvenance` on its result — the source trees at
their versions, and which tree-model leaf each leaf row was flattened from
— and :func:`partial_compile_classifier` uses it to *re-span* only the
leaves an :class:`~repro.neurocuts.updates.IncrementalUpdater` recorded:
the new generation shares every node column of the previous forest except
``start``/``count``, appends one fresh span per touched leaf to the leaf-slot
column and re-points that leaf's rows at it.  Anything the record does not
cover — different tree objects, a tree changed behind the updater's back —
is a full rebuild instead, so the fast path can never be wrong, only missed;
so is a rule list more than half of whose rules no live span references.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, \
    Tuple

import numpy as np

from repro.rules.rule import Rule
from repro.tree.actions import CutAction, MultiCutAction, SplitAction
from repro.tree.node import Node
from repro.tree.tree import DecisionTree
from repro.engine.dispatch import CompiledClassifier
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

if TYPE_CHECKING:
    from repro.neurocuts.updates import LeafRecord

#: Safety cap on how many search trees one tree-model tree may expand into
#: (partitions below the top of a tree multiply variants).
MAX_SEARCH_TREES = 256


# --------------------------------------------------------------------------- #
# Normalised intermediate nodes
# --------------------------------------------------------------------------- #

@dataclass
class _Leaf:
    rules: List[Rule]
    #: The tree-model leaf these rules came from.
    source: Optional[Node] = None


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
    # of this node routing into one member of every nested partition.  The
    # leaves below are shared, so such a leaf is flattened once per clone.
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
        return _Leaf(rules=sorted(node.rules, key=lambda r: -r.priority),
                     source=node)
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

    The tree model orders a multicut's children as the row-major cartesian
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
    converted once per distinct rule.

    ``rule_slot`` keys are the (frozen, hashable) rules themselves, not
    object ids: ids of dead objects get recycled, which would silently
    alias two different rules across the generations of a partially
    recompiled classifier.  Keying by value also dedupes equal rules, which
    is sound because equal rules match identically at equal priority.
    """

    def __init__(self, rule_slot: Dict[Rule, int],
                 rules_out: List[Rule]) -> None:
        self.rule_slot = rule_slot
        self.rules_out = rules_out
        self.records: List[tuple] = []  # one NODE_DTYPE-ordered row per node
        self.leaf_slots: List[int] = []  # distinct-rule slot per leaf row
        #: The tree-model leaf of each leaf row, in row order.
        self.leaves: List[Optional[Node]] = []
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
                self.leaves.append(node.source)
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
                        rule_table(self.rules_out))
        return [FlatTree(forest, *block) for block in self.blocks]


# --------------------------------------------------------------------------- #
# Provenance (what partial recompilation needs to remember)
# --------------------------------------------------------------------------- #

@dataclass
class CompileProvenance:
    """How a :class:`CompiledClassifier` was derived from its source trees.

    ``trees`` at ``versions`` are what the engine was compiled from.
    ``leaves`` holds the tree-model leaf each leaf row of the forest was
    flattened from, in row order — a leaf below a partition that sits below
    a cut owns one row per clone of its path.  It is one flat list (no
    per-row objects for the collector to walk); :meth:`rows_of` indexes it.
    ``rule_slot`` is the live index into the engine's shared distinct-rule
    list; partial recompiles extend both in place.  ``slot_refs`` counts,
    per rule slot, the leaf-slot rows of live spans holding it (``None``:
    every row is live, as after a full compile).
    """

    trees: Tuple[DecisionTree, ...]
    versions: Tuple[int, ...]
    leaves: List[Optional[Node]]
    rule_slot: Dict[Rule, int]
    slot_refs: Optional[np.ndarray] = None
    _rows: Optional[Dict[int, Tuple[Node, List[Tuple[int, int]]]]] = field(
        default=None, repr=False)
    _slot_ids: Optional[Dict[int, int]] = field(default=None, repr=False)

    def rows_of(self, compiled: CompiledClassifier
                ) -> Dict[int, Tuple[Node, List[Tuple[int, int]]]]:
        """``id(leaf) -> (leaf, [(node row, block), ...])`` over the forest
        of ``compiled`` (any generation: re-spans move no node row), built on
        first use and shared by every partial generation after it.
        ``leaves`` holds each keyed node alive, so no key's id can be
        recycled; the node beside the rows lets a lookup check identity all
        the same."""
        if self._rows is None:
            rows = np.flatnonzero(compiled.forest.node["kind"] == KIND_LEAF)
            blocks = np.searchsorted(
                [tree.node_offset for tree in compiled.subtrees], rows,
                side="right") - 1
            triples = list(zip(self.leaves, rows.tolist(), blocks.tolist()))
            table = {id(leaf): (leaf, [(row, block)])
                     for leaf, row, block in triples}
            if len(table) < len(triples):  # some leaf owns several rows
                table = {}
                for leaf, row, block in triples:
                    table.setdefault(id(leaf), (leaf, []))[1].append(
                        (row, block))
            table.pop(id(None), None)
            self._rows = table
        return self._rows

    def slot_ids(self, rules: List[Rule]) -> Dict[int, int]:
        """``id(rule) -> slot`` over ``rules``, the engine's rule list: a
        way past hashing a rule by value, built on first use and extended
        as partial recompiles append.  Only objects the list holds are
        keyed, so no key's id can be recycled."""
        if self._slot_ids is None:
            self._slot_ids = {id(rule): slot
                              for slot, rule in enumerate(rules)}
        return self._slot_ids


@dataclass
class PartialCompileResult:
    """What :func:`partial_compile_classifier` did, for metrics and tests."""

    classifier: CompiledClassifier
    #: True when the record could not be used and everything rebuilt.
    full_rebuild: bool
    #: True when dead rows passed a bound: the leaf-slot column was packed,
    #: or (with ``full_rebuild``) the rule slots were numbered afresh.
    compacted: bool = False
    #: Leaves whose rule spans were appended and re-pointed.
    leaves_respanned: int = 0


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

def compile_tree(tree: DecisionTree,
                 rule_slot: Optional[Dict[Rule, int]] = None,
                 rules_out: Optional[List[Rule]] = None) -> List[FlatTree]:
    """Compile one tree-model tree into its flat search trees."""
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
    rule_slot: Dict[Rule, int] = {}
    rules_out: List[Rule] = []
    flattener = _Flattener(rule_slot, rules_out)
    for tree in classifier.trees:
        for root in _expand_partitions(tree.root):
            flattener.add(_normalize(root))
    compiled = CompiledClassifier(
        subtrees=flattener.trees(),
        rules=rules_out,
        name=classifier.name,
        flow_cache_size=flow_cache_size,
    )
    compiled.provenance = CompileProvenance(
        trees=tuple(classifier.trees),
        versions=tuple(tree.version for tree in classifier.trees),
        leaves=flattener.leaves,
        rule_slot=rule_slot,
    )
    return compiled


def partial_compile_classifier(
    classifier,
    previous,
    touched_leaves: Optional[Sequence[LeafRecord]] = None,
    flow_cache_size: Optional[int] = None,
) -> PartialCompileResult:
    """Re-span only the leaves a rule delta edited; share everything else.

    ``previous`` is the engine compiled from ``classifier`` before the
    delta; ``touched_leaves`` holds one
    :class:`~repro.neurocuts.updates.LeafRecord` per tree the delta went
    through (:meth:`IncrementalUpdater.take_touched
    <repro.neurocuts.updates.IncrementalUpdater.take_touched>`).  The new
    generation shares every node column of ``previous.forest`` except
    ``start`` / ``count``, which it copies; each touched leaf gets one span
    of its current rules, in :func:`_normalize`'s order, appended to the
    leaf-slot column (rules new to the engine appended to the shared rule
    list and table), and every row compiled from that leaf is re-pointed at
    it.  Its old span stays behind as dead rows.

    Compaction (``compacted=True``) is due when dead leaf-slot rows
    outnumber live ones — the column is then packed (:func:`_pack`), which
    leaves it row for row the size a cold compile gives — or when the rule
    list holds more than twice the rules live spans reference, which is a
    full rebuild: it numbers the rule slots afresh.

    The result is a full rebuild (``full_rebuild=True``), with the answers
    :func:`compile_classifier` gives, also when ``previous`` carries no
    provenance or ``touched_leaves`` is ``None``, the trees are different
    objects (adoption), a tree's version moved without a record
    covering the move, or a recorded leaf was never compiled.  Either way
    the result is a fresh :class:`CompiledClassifier`; the still-serving
    ``previous`` is only read, apart from appends to the shared rule list.
    """
    def full(compacted: bool = False) -> PartialCompileResult:
        compiled = compile_classifier(
            classifier, flow_cache_size=flow_cache_size)
        return PartialCompileResult(compiled, full_rebuild=True,
                                    compacted=compacted)

    provenance: Optional[CompileProvenance] = getattr(
        previous, "provenance", None)
    if provenance is None or touched_leaves is None:
        return full()
    trees = tuple(classifier.trees)
    if len(trees) != len(provenance.trees) or any(
            tree is not prev for tree, prev in zip(trees, provenance.trees)):
        return full()
    records = {id(record.tree): record for record in touched_leaves}
    for tree, version in zip(trees, provenance.versions):
        record = records.get(id(tree))
        if tree.version != version and (
                record is None
                or (record.since, record.until) != (version, tree.version)):
            return full()

    forest = previous.forest
    rule_slot = provenance.rule_slot
    rules_out = previous.rules  # append-only; previous keeps serving from it
    slot_ids = provenance.slot_ids(rules_out)
    rows_of = provenance.rows_of(previous)
    appended: List[int] = []  # the touched leaves' slots, leaf after leaf
    lengths: List[int] = []  # per touched leaf
    repointed: List[Tuple[int, int]] = []  # (node row, block) of their rows
    owner: List[int] = []  # per such row, the touched leaf it was built from
    for record in touched_leaves:
        for leaf in record.leaves:
            entry = rows_of.get(id(leaf))
            if entry is None or entry[0] is not leaf:
                return full()
            slots = list(map(slot_ids.get, map(id, leaf.rules)))
            if None in slots:
                slots = [_intern(rule, rule_slot, slot_ids, rules_out)
                         if slot is None else slot
                         for rule, slot in zip(leaf.rules, slots)]
            appended.extend(slots)
            owner.extend([len(lengths)] * len(entry[1]))
            repointed.extend(entry[1])
            lengths.append(len(slots))

    table = rule_table(rules_out, forest.table)
    old_slots = forest.rule["rule_index"]
    refs = provenance.slot_refs
    if refs is None:
        refs = np.bincount(old_slots, minlength=len(rules_out))
    elif len(refs) < len(rules_out):
        refs = np.concatenate(
            [refs, np.zeros(len(rules_out) - len(refs), refs.dtype)])
    node, slots, subtrees = forest.node, old_slots, list(previous.subtrees)
    if lengths:
        length = np.array(lengths)
        new_slots = np.array(appended, dtype=old_slots.dtype)
        first = len(old_slots) + np.cumsum(length) - length
        # Each span ordered as _normalize orders a leaf: by descending
        # priority, stably.  Node rule lists are kept in that order, so the
        # sort is only paid for when some span is not.
        priority = table["priority"][new_slots]
        leaf_start = np.zeros(len(new_slots), dtype=bool)
        leaf_start[first[length > 0] - len(old_slots)] = True
        if ((priority[1:] > priority[:-1]) & ~leaf_start[1:]).any():
            leaf = np.cumsum(leaf_start) - 1
            new_slots = new_slots[np.argsort(
                (leaf << 33) - priority, kind="stable")]
        rows, blocks = np.fromiter(chain.from_iterable(repointed), np.int64,
                                   2 * len(repointed)).reshape(-1, 2).T
        offsets = np.array([tree.rule_offset for tree in subtrees])[blocks]
        owner_of = np.array(owner)
        # The rows' old spans die, each once: the rows of a leaf re-spanned
        # before share one.
        old_first = offsets + node["start"][rows]
        old_length = node["count"][rows]
        if len(rows) > len(lengths):
            once = np.ones(len(rows), dtype=bool)
            once[1:] = (owner_of[1:] != owner_of[:-1]) \
                | (old_first[1:] != old_first[:-1])
            old_first, old_length = old_first[once], old_length[once]
        dead = old_slots[_span_rows(old_first, old_length)]
        refs = refs + np.bincount(new_slots, minlength=len(refs)) \
            - np.bincount(dead, minlength=len(refs))
        start, count = node["start"].copy(), node["count"].copy()
        start[rows] = first[owner_of] - offsets
        count[rows] = length[owner_of]
        node = dict(node, start=start, count=count)
        slots = np.concatenate([old_slots, new_slots])
        for block in set(blocks.tolist()):
            mine = owner_of[blocks == block]
            tree = subtrees[block]
            subtrees[block] = replace(
                tree,
                num_leaf_rules=int((first + length)[mine].max())
                - tree.rule_offset,
                max_leaf_span=max(tree.max_leaf_span,
                                  int(length[mine].max())))
    if len(rules_out) > 2 * np.count_nonzero(refs):
        return full(compacted=True)
    live = int(refs.sum())
    compacted = len(slots) - live > live
    if compacted:
        node, slots, subtrees = _pack(node, slots, subtrees)
    new_forest = Forest(node, {"rule_index": slots}, table)
    compiled = CompiledClassifier.from_forest(
        new_forest,
        [replace(tree, forest=new_forest) for tree in subtrees],
        rules=rules_out,
        name=previous.name,
        flow_cache_size=flow_cache_size,
    )
    compiled.provenance = replace(
        provenance, versions=tuple(tree.version for tree in trees),
        slot_refs=refs)
    return PartialCompileResult(compiled, full_rebuild=False,
                                compacted=compacted,
                                leaves_respanned=len(lengths))


def _intern(rule: Rule, rule_slot: Dict[Rule, int], slot_ids: Dict[int, int],
            rules_out: List[Rule]) -> int:
    """The slot of ``rule``, appending it to the rule list if it is new."""
    slot = rule_slot.get(rule)
    if slot is None:
        slot = rule_slot[rule] = slot_ids[id(rule)] = len(rules_out)
        rules_out.append(rule)
    return slot


def _span_rows(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows of the spans ``[first, first + length)``, span after span."""
    ends = np.cumsum(lengths)
    return np.repeat(first - (ends - lengths), lengths) \
        + np.arange(int(ends[-1]) if len(ends) else 0)


def _pack(node: Mapping[str, np.ndarray], slots: np.ndarray,
          subtrees: List[FlatTree]
          ) -> Tuple[Dict[str, np.ndarray], np.ndarray, List[FlatTree]]:
    """The leaf-slot column without dead rows: one span per leaf row, in
    node-row order, block after block — where a cold compile puts them.

    Returns the node columns with the leaf rows' ``start`` rewritten, the
    packed column and the subtrees with their new rule blocks.
    """
    leaf_rows = np.flatnonzero(node["kind"] == KIND_LEAF)
    block = np.searchsorted([t.node_offset for t in subtrees], leaf_rows,
                            side="right") - 1
    first = np.array([t.rule_offset for t in subtrees])[block] \
        + node["start"][leaf_rows]
    lengths = node["count"][leaf_rows].astype(np.int64)
    ends = np.cumsum(lengths)
    begins = ends - lengths
    packed = slots[_span_rows(first, lengths)]
    # Every block holds at least one leaf; leaf rows are grouped by block.
    block_first = np.searchsorted(block, np.arange(len(subtrees)))
    block_end = np.append(begins[block_first][1:], ends[-1])
    offsets = begins[block_first]
    start = node["start"].copy()
    start[leaf_rows] = begins - offsets[block]
    widest = np.maximum.reduceat(lengths, block_first)
    return dict(node, start=start), packed, [
        replace(tree, rule_offset=int(offset),
                num_leaf_rules=int(end - offset), max_leaf_span=int(span))
        for tree, offset, end, span in zip(subtrees, offsets, block_end,
                                           widest)]

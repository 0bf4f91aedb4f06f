"""Compilation of tree-model trees into flat search structures.

Compilation happens in two steps:

1. **Partition expansion** — partition nodes (NeuroCuts' top-node partitions
   and EffiCuts category splits) require consulting *every* child, which has
   no place in a single-descent flat tree.  Each partition node is expanded
   into one independent search tree per child; the dispatcher queries all of
   them and keeps the highest-priority match, which is exactly the
   tree model's partition semantics.
2. **Flattening** — one breadth-first pass over each expanded root's
   tree-model nodes lays it out into the node table's columns, so every
   node's children occupy one contiguous index span.  A cut or split is one
   row (a split keeps its single boundary point), and a multi-dimension cut
   is a chain of single-dimension cut rows (children ordered the same
   row-major way the tree model orders the cut's cartesian product).  The
   per-leaf rule lists are concatenated, highest priority first, into the
   leaf rule table as slots into the engine's distinct-rule table.

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

from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import attrgetter
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
            _cap(len(expanded))
        return expanded
    variant_lists = [_expand_partitions(child) for child in node.children]
    total = 1
    for variants in variant_lists:
        total *= len(variants)
        _cap(total)
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


def _cap(search_trees: int) -> None:
    if search_trees > MAX_SEARCH_TREES:
        raise CompileError("partition structure expands into more than "
                           f"{MAX_SEARCH_TREES} search trees")


# --------------------------------------------------------------------------- #
# Step 2: the breadth-first pass
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


def _chain(node: Node) -> List[Tuple[int, int, int, int, int]]:
    """The levels of single-dimension cuts a cut becomes, as ``(dim, lo,
    base, rem, fan-out)``: one, or one per dimension of a multi-dimension
    cut.  The tree model orders a multicut's children as the row-major
    cartesian product of the per-dimension sub-ranges, which walking the
    levels in order reproduces: grid cell ``(i0, i1, ...)`` resolves to
    the same child."""
    action, children = node.action, node.children
    if isinstance(action, CutAction):
        dim = int(action.dimension)
        return [(dim, *_cut_params(node, dim, len(children)), len(children))]
    if not isinstance(action, MultiCutAction):
        raise CompileError(f"cannot compile action {action!r}")
    specs = []
    cells = 1
    for dim, requested in action.cuts:
        lo, hi = node.ranges[int(dim)]
        effective = min(requested, hi - lo)
        specs.append((int(dim), *_cut_params(node, int(dim), effective),
                      effective))
        cells *= effective
    if cells != len(children):
        raise CompileError(
            f"multicut fan-out mismatch: grid has {cells} cells, "
            f"node has {len(children)} children"
        )
    return specs


#: Smallest and largest value each node column's width can hold.
_NODE_MIN = np.array([np.iinfo(NODE_DTYPE[name]).min
                      for name in NODE_DTYPE.names])
_NODE_MAX = np.array([np.iinfo(NODE_DTYPE[name]).max
                      for name in NODE_DTYPE.names])

_PRIORITY = attrgetter("priority")
_RULES = attrgetter("rules")
_KIND, _START, _COUNT = (NODE_DTYPE.names.index(name)
                         for name in ("kind", "start", "count"))
#: A leaf's row as the pass appends it; :meth:`_Flattener.build` spans it.
_LEAF_ROW = (KIND_LEAF, 0, 0, 0, 0, 0, 0)


class _Flattener:
    """Lays tree-model trees out breadth-first, one block of rows each.

    The pass (:meth:`add`) appends a row per node and the node of each
    leaf; :meth:`build` lays out every leaf's span and slots its rules at
    once, converting all the trees of a compile to one :class:`Forest`.

    ``rule_slot`` keys are the (frozen, hashable) rules themselves, not
    object ids: ids of dead objects get recycled, which would silently
    alias two different rules across the generations of a partially
    recompiled classifier.  Keying by value also dedupes equal rules, which
    is sound because equal rules match identically at equal priority.
    Within one compile the trees hold every rule alive, so rules are told
    apart by ``id`` and ``rule_slot`` is read once per distinct object.
    """

    def __init__(self, rule_slot: Dict[Rule, int],
                 rules_out: List[Rule]) -> None:
        self.rule_slot = rule_slot
        self.rules_out = rules_out
        self.records: List[tuple] = []  # one NODE_DTYPE-ordered row per node
        #: The tree-model leaf of each leaf row, in row order.
        self.leaves: List[Node] = []
        #: Per tree: its first node row, its node rows and its depth.
        self.blocks: List[Tuple[int, int, int]] = []

    def add(self, root: Node) -> None:
        """Append the block of one expanded root, breadth-first (indices
        relative to the block): a leaf or split is one row, a cut a chain of
        single-dimension cut rows (:func:`_chain`) whose entries below the
        first level carry ``(node, levels, level, cell)`` until the last
        level hands over the node's children."""
        records, leaves = self.records, self.leaves
        node_offset = len(records)
        level: List[object] = [root]
        next_index = 1
        depth = -1
        while level:  # one tree level per round: rows in breadth-first order
            depth += 1
            below: List[object] = []
            for entry in level:
                if type(entry) is not tuple:
                    action = entry.action
                    if action is None:
                        records.append(_LEAF_ROW)
                        leaves.append(entry)
                        continue
                    if isinstance(action, SplitAction):
                        children = entry.children
                        records.append((KIND_SPLIT, int(action.dimension),
                                        action.split_point, 0, 0, next_index,
                                        len(children)))
                        below.extend(children)
                        next_index += len(children)
                        continue
                    entry = (entry, _chain(entry), 0, 0)
                node, specs, at, cell = entry
                dim, lo, base, rem, fan_out = specs[at]
                first = cell * fan_out
                if at + 1 < len(specs):
                    below.extend((node, specs, at + 1, first + i)
                                 for i in range(fan_out))
                else:
                    below.extend(node.children[first:first + fan_out])
                records.append((KIND_CUT, dim, lo, base, rem, next_index,
                                fan_out))
                next_index += fan_out
            level = below
        self.blocks.append((node_offset, len(records) - node_offset, depth))

    def build(self) -> Tuple[Forest, List[FlatTree]]:
        """One new forest of the trees added so far, and their views."""
        width = len(NODE_DTYPE.names)
        table = np.fromiter(chain.from_iterable(self.records), np.int64,
                            width * len(self.records)).reshape(-1, width)
        leaf_rows = np.flatnonzero(table[:, _KIND] == KIND_LEAF)
        lists = list(map(_RULES, self.leaves))
        lengths = np.fromiter(map(len, lists), np.int64, len(lists))
        start, offsets, sizes, widest = _spans(np.searchsorted(
            [block[0] for block in self.blocks], leaf_rows, side="right") - 1,
            lengths, len(self.blocks))
        table[leaf_rows, _START] = start
        table[leaf_rows, _COUNT] = lengths
        unfit = (table.min(axis=0) < _NODE_MIN) \
            | (table.max(axis=0) > _NODE_MAX)
        if unfit.any():
            name = NODE_DTYPE.names[int(unfit.argmax())]
            raise CompileError(
                f"node column {name!r} holds a value that does not fit its "
                f"{NODE_DTYPE[name]} width")
        slots = self._slots(list(chain.from_iterable(lists)), lengths)
        forest = Forest(
            {name: table[:, col].astype(NODE_DTYPE[name])
             for col, name in enumerate(NODE_DTYPE.names)},
            {"rule_index": slots}, rule_table(self.rules_out))
        return forest, [
            FlatTree(forest, node_offset, num_nodes, int(offset), int(size),
                     depth, int(span))
            for (node_offset, num_nodes, depth), offset, size, span
            in zip(self.blocks, offsets, sizes, widest)]

    def _slots(self, refs: List[Rule], lengths: np.ndarray) -> np.ndarray:
        """The leaf-slot column of ``refs``, the leaves' rules leaf after
        leaf (``lengths`` per leaf): each leaf's by descending priority,
        stably, and each rule the pool lacks appended to it where it first
        appears in that order."""
        by_id = dict(zip(map(id, refs), refs))  # every distinct rule object
        number = dict(zip(by_id, range(len(by_id))))
        distinct = list(by_id.values())
        ref_rule = _by_priority(
            np.fromiter(map(number.__getitem__, map(id, refs)), np.int64,
                        len(refs)),
            lengths,
            np.fromiter(map(_PRIORITY, distinct), np.int64, len(distinct)))
        _, first = np.unique(ref_rule, return_index=True)
        order = ref_rule[np.sort(first)].tolist()
        slot = np.empty(len(distinct), dtype=RULE_DTYPE["rule_index"])
        slot[order] = list(map(
            _intern, map(distinct.__getitem__, order), repeat(self.rule_slot),
            repeat(self.rules_out)))
        return slot[ref_rule]


def _by_priority(items: np.ndarray, lengths: np.ndarray,
                 priority: np.ndarray) -> np.ndarray:
    """``items`` (rules, as indices into ``priority``), cut into consecutive
    spans of ``lengths``, with each span ordered by descending priority,
    stably.  Rule lists are mostly kept in that order, so the sort is
    rarely paid for."""
    ends = np.cumsum(lengths)
    span_start = np.zeros(len(items), dtype=bool)
    span_start[(ends - lengths)[lengths > 0]] = True
    rank = priority[items]
    if ((rank[1:] > rank[:-1]) & ~span_start[1:]).any():
        span = np.cumsum(span_start) - 1
        items = items[np.argsort((span << 33) - rank, kind="stable")]
    return items


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
    list, and ``slot_ids`` the same by ``id`` for the objects that list
    holds (a way past hashing a rule by value, keyed on the first partial
    recompile; as only listed objects are keyed, no key's id can be
    recycled); partial recompiles extend all three in place.
    ``slot_refs`` counts,
    per rule slot, the leaf-slot rows of live spans holding it (``None``:
    every row is live, as after a full compile).
    """

    trees: Tuple[DecisionTree, ...]
    versions: Tuple[int, ...]
    leaves: List[Node]
    rule_slot: Dict[Rule, int]
    slot_ids: Optional[Dict[int, int]] = None
    slot_refs: Optional[np.ndarray] = None
    _rows: Optional[Dict[int, Tuple[Node, List[Tuple[int, int]]]]] = field(
        default=None, repr=False)

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
            self._rows = table
        return self._rows


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
    """Compile one tree-model tree into its flat search trees.

    ``rule_slot`` and ``rules_out`` are a rule pool several calls may share:
    the slot of each distinct rule and the rule list those slots index.
    Pass both or neither; the trees' forest describes ``rules_out`` whole.
    """
    if (rule_slot is None) != (rules_out is None):
        raise ValueError(
            "compile_tree takes a rule pool's slot map and its rule list "
            "together, or neither")
    flattener = _Flattener({} if rule_slot is None else rule_slot,
                           [] if rules_out is None else rules_out)
    for root in _expand_partitions(tree.root):
        flattener.add(root)
    return flattener.build()[1]


def compile_classifier(classifier, flow_cache_size: Optional[int] = None):
    """Compile a :class:`~repro.tree.lookup.TreeClassifier` for the engine.

    Returns a :class:`~repro.engine.dispatch.CompiledClassifier` that
    resolves the highest-priority match across every tree and partition in
    one pass over the compiled search trees.  The result carries a
    :class:`CompileProvenance` so later deltas can go through
    :func:`partial_compile_classifier`.
    """
    flattener = _Flattener({}, [])
    for tree in classifier.trees:
        for root in _expand_partitions(tree.root):
            flattener.add(root)
    forest, subtrees = flattener.build()
    compiled = CompiledClassifier.from_forest(
        forest, subtrees, rules=flattener.rules_out, name=classifier.name,
        flow_cache_size=flow_cache_size)
    compiled.provenance = CompileProvenance(
        trees=tuple(classifier.trees),
        versions=tuple(tree.version for tree in classifier.trees),
        leaves=flattener.leaves,
        rule_slot=flattener.rule_slot,
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
    of its current rules, ordered as a cold compile orders them, appended
    to the leaf-slot column (rules new to the engine appended to the shared
    rule list and table), and every row compiled from that leaf is
    re-pointed at it.  Its old span stays behind as dead rows.

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
    if provenance.slot_ids is None:
        provenance.slot_ids = {id(rule): slot
                               for slot, rule in enumerate(rules_out)}
    slot_ids, known = provenance.slot_ids, len(rules_out)
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
            if None in slots:  # key the rules it appends for later leaves
                slots = [_intern(rule, rule_slot, rules_out)
                         if slot is None else slot
                         for rule, slot in zip(leaf.rules, slots)]
                slot_ids.update(zip(map(id, rules_out[known:]),
                                    range(known, len(rules_out))))
                known = len(rules_out)
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
        # Each span ordered as a cold compile orders a leaf.
        new_slots = _by_priority(new_slots, length, table["priority"])
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


def _intern(rule: Rule, rule_slot: Dict[Rule, int],
            rules_out: List[Rule]) -> int:
    """The slot of ``rule``, appending it to the rule list if it is new."""
    slot = rule_slot.setdefault(rule, len(rules_out))
    if slot == len(rules_out):
        rules_out.append(rule)
    return slot


def _span_rows(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows of the spans ``[first, first + length)``, span after span."""
    ends = np.cumsum(lengths)
    return np.repeat(first - (ends - lengths), lengths) \
        + np.arange(int(ends[-1]) if len(ends) else 0)


def _spans(block: np.ndarray, lengths: np.ndarray, num_blocks: int
           ) -> Tuple[np.ndarray, ...]:
    """Where a cold compile puts the leaves' spans: one per leaf row, in
    node-row order, block after block.

    ``block`` and ``lengths`` give each leaf row's block and span length;
    every block holds at least one leaf, and leaf rows are grouped by
    block.  Returns each leaf row's ``start`` within its block and, per
    block, its first leaf-slot row, its leaf-slot rows and its widest span.
    """
    ends = np.cumsum(lengths)
    begins = ends - lengths
    block_first = np.searchsorted(block, np.arange(num_blocks))
    offsets = begins[block_first]
    sizes = np.append(offsets[1:], ends[-1]) - offsets
    return (begins - offsets[block], offsets, sizes,
            np.maximum.reduceat(lengths, block_first))


def _pack(node: Mapping[str, np.ndarray], slots: np.ndarray,
          subtrees: List[FlatTree]
          ) -> Tuple[Dict[str, np.ndarray], np.ndarray, List[FlatTree]]:
    """The leaf-slot column without dead rows, each span where a cold
    compile puts it (:func:`_spans`).

    Returns the node columns with the leaf rows' ``start`` rewritten, the
    packed column and the subtrees with their new rule blocks.
    """
    leaf_rows = np.flatnonzero(node["kind"] == KIND_LEAF)
    block = np.searchsorted([t.node_offset for t in subtrees], leaf_rows,
                            side="right") - 1
    first = np.array([t.rule_offset for t in subtrees])[block] \
        + node["start"][leaf_rows]
    lengths = node["count"][leaf_rows].astype(np.int64)
    packed = slots[_span_rows(first, lengths)]
    starts, offsets, sizes, widest = _spans(block, lengths, len(subtrees))
    start = node["start"].copy()
    start[leaf_rows] = starts
    return dict(node, start=start), packed, [
        replace(tree, rule_offset=int(offset), num_leaf_rules=int(size),
                max_leaf_span=int(span))
        for tree, offset, size, span in zip(subtrees, offsets, sizes, widest)]

"""The three-step compile: the oracle the one-pass compile is held to.

:func:`compile_classifier` and :func:`compile_tree` here lay a tree-model
tree out the way :mod:`repro.engine.compile` must, in three separate walks
that share nothing with it but the tables' schema:

1. partition expansion — one search tree per partition child, and a clone
   of the path above a partition that sits below a cut;
2. normalisation — every node rewritten into ``_Leaf`` / ``_Cut`` /
   ``_Split`` objects, a multi-dimension cut into a chain of
   single-dimension cut levels and a leaf's rules sorted by descending
   priority, stably;
3. flattening — the normalised trees laid out breadth-first, with every
   leaf-rule reference looked up by value in the rule-slot map.

The engine it builds goes through :class:`CompiledClassifier`'s copying
constructor, so its forest is a second copy of the flattened blocks.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine import CompiledClassifier
from repro.engine.compile import CompileProvenance
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
from repro.tree.actions import CutAction, MultiCutAction, SplitAction
from repro.tree.node import Node

MAX_SEARCH_TREES = 256


@dataclass
class _Leaf:
    rules: list
    source: Optional[Node] = None


@dataclass
class _Cut:
    dim: int
    lo: int
    base: int
    rem: int
    children: list = field(default_factory=list)


@dataclass
class _Split:
    dim: int
    point: int
    children: list = field(default_factory=list)


def expand_partitions(node):
    """The roots of the cut/split-only trees equivalent to ``node``."""
    if node.is_leaf:
        return [node]
    if node.is_partition_node:
        expanded = []
        for child in node.children:
            expanded.extend(expand_partitions(child))
            if len(expanded) > MAX_SEARCH_TREES:
                raise CompileError("too many search trees")
        return expanded
    variant_lists = [expand_partitions(child) for child in node.children]
    total = 1
    for variants in variant_lists:
        total *= len(variants)
        if total > MAX_SEARCH_TREES:
            raise CompileError("too many search trees")
    if total == 1:
        return [node]
    roots = []
    indices = [0] * len(variant_lists)
    for _ in range(total):
        clone = Node(ranges=node.ranges, rules=node.rules, depth=node.depth,
                     partition_state=node.partition_state,
                     efficuts_category=node.efficuts_category)
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


def _cut_params(node, dim, num_children):
    lo, hi = node.ranges[dim]
    span = hi - lo
    if num_children < 2 or span < num_children:
        raise CompileError(
            f"cut with {num_children} children over a span of {span} values")
    return lo, span // num_children, span % num_children


def normalize(node):
    """``node`` rewritten into ``_Leaf`` / ``_Cut`` / ``_Split`` objects."""
    if node.is_leaf:
        return _Leaf(rules=sorted(node.rules, key=lambda r: -r.priority),
                     source=node)
    action = node.action
    children = node.children
    if isinstance(action, CutAction):
        lo, base, rem = _cut_params(node, int(action.dimension),
                                    len(children))
        return _Cut(dim=int(action.dimension), lo=lo, base=base, rem=rem,
                    children=[normalize(c) for c in children])
    if isinstance(action, SplitAction):
        return _Split(dim=int(action.dimension), point=action.split_point,
                      children=[normalize(c) for c in children])
    if isinstance(action, MultiCutAction):
        return _normalize_multicut(node)
    raise CompileError(f"cannot compile action {action!r}")


def _normalize_multicut(node):
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
        raise CompileError("multicut fan-out mismatch")

    def build(level, prefix):
        dim, lo, base, rem, effective = specs[level]
        cut = _Cut(dim=dim, lo=lo, base=base, rem=rem)
        for i in range(effective):
            cell = prefix * effective + i
            if level == len(specs) - 1:
                cut.children.append(normalize(node.children[cell]))
            else:
                cut.children.append(build(level + 1, cell))
        return cut

    return build(0, 0)


class Flattener:
    """Normalised trees laid out breadth-first, one block of rows each."""

    def __init__(self, rule_slot: Dict, rules_out: List) -> None:
        self.rule_slot = rule_slot
        self.rules_out = rules_out
        self.records = []
        self.leaf_slots = []
        self.leaves = []
        self.blocks = []

    def add(self, root) -> None:
        records, leaf_slots = self.records, self.leaf_slots
        node_offset, rule_offset = len(records), len(leaf_slots)
        queue = deque([(root, 0)])
        next_index = 1
        depth = 0
        max_span = 0
        while queue:
            node, depth = queue.popleft()
            if isinstance(node, _Leaf):
                start = len(leaf_slots) - rule_offset
                for rule in node.rules:
                    slot = self.rule_slot.get(rule)
                    if slot is None:
                        slot = self.rule_slot[rule] = len(self.rules_out)
                        self.rules_out.append(rule)
                    leaf_slots.append(slot)
                self.leaves.append(node.source)
                records.append((KIND_LEAF, 0, 0, 0, 0, start,
                                len(node.rules)))
                max_span = max(max_span, len(node.rules))
                continue
            start = next_index
            next_index += len(node.children)
            queue.extend((child, depth + 1) for child in node.children)
            if isinstance(node, _Cut):
                records.append((KIND_CUT, node.dim, node.lo, node.base,
                                node.rem, start, len(node.children)))
            else:
                records.append((KIND_SPLIT, node.dim, node.point, 0, 0,
                                start, len(node.children)))
        self.blocks.append((node_offset, len(records) - node_offset,
                            rule_offset, len(leaf_slots) - rule_offset,
                            depth, max_span))

    def trees(self) -> List[FlatTree]:
        table = np.array(self.records, dtype=np.int64).reshape(
            len(self.records), len(NODE_DTYPE.names))
        forest = Forest(
            {name: table[:, col].astype(NODE_DTYPE[name])
             for col, name in enumerate(NODE_DTYPE.names)},
            {"rule_index": np.array(self.leaf_slots,
                                    dtype=RULE_DTYPE["rule_index"])},
            rule_table(self.rules_out))
        return [FlatTree(forest, *block) for block in self.blocks]


def compile_tree(tree, rule_slot=None, rules_out=None) -> List[FlatTree]:
    flattener = Flattener(rule_slot if rule_slot is not None else {},
                          rules_out if rules_out is not None else [])
    for root in expand_partitions(tree.root):
        flattener.add(normalize(root))
    return flattener.trees()


def compile_classifier(classifier) -> CompiledClassifier:
    rule_slot, rules_out = {}, []
    flattener = Flattener(rule_slot, rules_out)
    for tree in classifier.trees:
        for root in expand_partitions(tree.root):
            flattener.add(normalize(root))
    compiled = CompiledClassifier(subtrees=flattener.trees(),
                                  rules=rules_out, name=classifier.name)
    compiled.provenance = CompileProvenance(
        trees=tuple(classifier.trees),
        versions=tuple(tree.version for tree in classifier.trees),
        leaves=flattener.leaves,
        rule_slot=rule_slot,
    )
    return compiled

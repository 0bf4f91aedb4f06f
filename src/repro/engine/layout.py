"""Column layout of a compiled classifier: one forest, many search trees.

The tree model in :mod:`repro.tree` is a graph of Python ``Node`` objects,
built for construction.  The engine stores every search tree of a
classifier in one :class:`Forest` — three tables kept as **column
arrays**, one contiguous read-only array per field:

* a **node table** (fields and widths of :data:`NODE_DTYPE`) — one row per
  node, children stored as a contiguous index span so child selection is
  pure integer arithmetic;
* a **leaf rule table** (:data:`RULE_DTYPE`) — the per-leaf rule lists
  concatenated into rule *pointers*: one ``int32`` slot per rule a leaf
  holds, so a replicated rule costs four bytes per leaf holding it, as in
  the tree model's rule-pointer memory model;
* a **distinct-rule table** (:data:`RULE_TABLE_DTYPE`) — the box and
  priority of every distinct rule, once: row ``i`` describes the engine's
  ``rules[i]`` and is what slot ``i`` points at.

Node rows come in three kinds.  ``KIND_CUT`` rows describe an equal-width
cut: the builder distributes a span of ``width`` values over ``k`` children
as ``rem`` children of ``base + 1`` values followed by ``k - rem`` children
of ``base`` values, so the child holding value ``v`` is computed directly
from ``(v - lo, base, rem)`` without touching per-child boxes.  ``KIND_SPLIT``
rows carry a single boundary point, in ``lo``.  ``KIND_LEAF`` rows carry a
span into the leaf rule table, sorted highest priority first so the first
hit wins inside a leaf.  Every row's ``start``/``count`` is the span of its
children: node rows for an internal node, leaf-rule rows for a leaf.

All three tables are at header width: no header field is wider than 32
bits, so node ``lo``/``base``/``rem`` and a rule's box are ``uint32`` (a
box's ``hi`` is inclusive, as an IP range's exclusive end does not fit), and
:func:`check_headers` hands the walk headers already cast to ``uint32``.

Each search tree occupies one block of consecutive rows in the node and
leaf rule tables, and the indices stored *inside* a block (``start``) are
relative to the block's first row.  Blocks therefore move between forests
by plain concatenation, and a
:class:`FlatTree` — the view of one block: its two offsets and spans plus
the tree's own ``depth`` and ``max_leaf_span`` — reads the same whether its
forest holds one tree or fifty.  The distinct-rule table is shared by every
block of a forest; slots are absolute.  A partial recompile appends a
re-spanned leaf's rule pointers at the end of the leaf rule table, past
every block, and stretches its tree's leaf-rule rows to reach them: such a
block's rows also cover later blocks' rows and dead spans.

Lookup is one walk for any number of packets and trees
(:meth:`Forest.lookup`): every ``(tree, packet)`` pair is a *lane*, all
lanes advance one level per iteration of a single loop, and the leaves they
reach are scanned in one pass (small walks) or in lock-step (large ones).
Python-level work is proportional to tree depth and at most leaf width, not
to the number of packets or trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidRangeError, TreeError
from repro.rules.fields import DIMENSIONS, FIELD_RANGES, NUM_DIMENSIONS
from repro.rules.packet import Packet


class CompileError(TreeError):
    """Raised when a tree cannot be lowered to the flat layout."""


#: Node kinds stored in the ``kind`` column.
KIND_LEAF = 0
KIND_CUT = 1
KIND_SPLIT = 2

#: Schema of the node table: one column per field, at this width (22 B).
#: ``start``/``count`` delimit, block-relative, the span of a node's
#: children: node rows for an internal node, leaf-rule rows for a leaf.
#: ``lo`` is a cut's first value and a split's boundary.  Every header field
#: is at most 32 bits wide, so ``lo``, a cut's child width ``base`` and
#: ``rem`` fit ``uint32`` (compilation checks), and the walk's cut
#: arithmetic stays in that one type.
NODE_DTYPE = np.dtype(
    [
        ("kind", np.int8),
        ("dim", np.int8),
        ("lo", np.uint32),
        ("base", np.uint32),
        ("rem", np.uint32),
        ("start", np.int32),
        ("count", np.int32),
    ]
)

#: Schema of the leaf rule table: one row per rule reference stored in some
#: leaf.  ``rule_index`` is the slot of the rule in the compiled classifier's
#: distinct-rule list and table.
RULE_DTYPE = np.dtype([("rule_index", np.int32)])

#: Schema of the distinct-rule table (44 B): row ``i`` is the box and
#: priority of rule ``i`` of the compiled classifier.  ``hi`` is
#: *inclusive* — an IP range's exclusive end, 2**32, does not fit ``uint32``
#: — and all five fields share one ``uint32`` box, so the leaf scan gathers
#: two rows per step rather than one per field.
RULE_TABLE_DTYPE = np.dtype(
    [
        ("lo", np.uint32, (NUM_DIMENSIONS,)),
        ("hi", np.uint32, (NUM_DIMENSIONS,)),
        ("priority", np.int32),
    ]
)

_PRIORITY_WIDTH = np.iinfo(RULE_TABLE_DTYPE["priority"])

#: What :attr:`FlatTree.leaf_rules` assembles: each leaf-rule row beside the
#: distinct-rule row it points at.
LEAF_RULE_DTYPE = np.dtype(RULE_DTYPE.descr + RULE_TABLE_DTYPE.descr)

#: Sentinel priority smaller than any real rule priority.
NO_MATCH_PRIORITY = np.iinfo(np.int64).min

_FIELD_LO = np.array([FIELD_RANGES[d][0] for d in DIMENSIONS], dtype=np.int64)
_FIELD_HI = np.array([FIELD_RANGES[d][1] for d in DIMENSIONS], dtype=np.int64)
#: The same bounds for unsigned headers: ``uint64`` against ``int64`` would
#: compare in ``float64``.
_UNSIGNED_BOUNDS = (_FIELD_LO.astype(np.uint64), _FIELD_HI.astype(np.uint64))


def check_headers(values: np.ndarray) -> np.ndarray:
    """Validate an ``(n, 5)`` header matrix; returns it as contiguous uint32.

    The walk turns header values into row indices with unchecked integer
    arithmetic, so a value outside its field's range would read some other
    node's — in a shared forest some other *tree's* — rows.  Raises
    :class:`~repro.exceptions.InvalidRangeError` naming the first offending
    row and field, as :class:`~repro.rules.packet.Packet` does per packet.
    The caller's values are checked before any cast, so the message quotes
    them as given.  Every field fits 32 bits, so the matrix returned is the
    ``uint32`` one both the descent and the leaf scan read.
    """
    values = np.asarray(values)
    if (values.ndim != 2 or values.shape[1] != NUM_DIMENSIONS
            or values.dtype.kind not in "iu"):
        raise InvalidRangeError(
            f"expected an (n, {NUM_DIMENSIONS}) integer header matrix, "
            f"got {values.dtype} of shape {values.shape}"
        )
    lo, hi = _UNSIGNED_BOUNDS if values.dtype.kind == "u" \
        else (_FIELD_LO, _FIELD_HI)
    bad = (values < lo) | (values >= hi)
    if bad.any():
        row, col = (int(i) for i in np.argwhere(bad)[0])
        raise InvalidRangeError(
            f"packet {row}: field {DIMENSIONS[col].name}={values[row, col]} "
            f"out of range [{_FIELD_LO[col]}, {_FIELD_HI[col]})"
        )
    return np.ascontiguousarray(values, dtype=np.uint32)


def _frozen_columns(columns: Mapping[str, np.ndarray], schema: np.dtype,
                    table: str) -> Dict[str, np.ndarray]:
    """``columns`` checked against ``schema`` and made read-only."""
    frozen = {}
    for name in schema.names:
        field = schema[name]
        column = columns[name]
        if column.dtype != field.base or column.shape[1:] != field.shape:
            raise TypeError(
                f"{table} column {name!r} must be {field.base} with row "
                f"shape {field.shape}, got {column.dtype} {column.shape[1:]}"
            )
        column.setflags(write=False)
        frozen[name] = column
    if len({len(column) for column in frozen.values()}) != 1:
        raise ValueError(f"{table} columns differ in length")
    return frozen


def _records(columns: Mapping[str, np.ndarray], schema: np.dtype,
             rows: slice) -> np.ndarray:
    """Structured-array copy of ``rows`` of a column table."""
    records = np.empty(rows.stop - rows.start, dtype=schema)
    for name in schema.names:
        records[name] = columns[name][rows]
    return records


def rule_table(rules: Sequence,
               prefix: Optional[Mapping[str, np.ndarray]] = None
               ) -> Mapping[str, np.ndarray]:
    """The distinct-rule table of ``rules`` (:data:`RULE_TABLE_DTYPE` columns).

    ``prefix`` is a table already describing the first rules of the list
    (the previous engine generation's: rule lists only grow); only the rules
    past its end are converted, and a list it covers entirely gets
    ``prefix`` itself back — tables are read-only, so generations share.
    """
    done = 0 if prefix is None else len(prefix["priority"])
    if prefix is not None and done == len(rules):
        return prefix
    if done > len(rules):
        raise ValueError(
            f"rule table describes {done} rules, the rule list holds "
            f"{len(rules)}")
    new = rules[done:]
    bounds = np.fromiter(
        chain.from_iterable(chain.from_iterable(rule.ranges for rule in new)),
        np.int64, len(new) * NUM_DIMENSIONS * 2).reshape(
            len(new), NUM_DIMENSIONS, 2)
    priorities = [rule.priority for rule in new]
    width = _PRIORITY_WIDTH
    if priorities and (min(priorities) < width.min
                       or max(priorities) > width.max):
        raise CompileError(
            f"rule table column 'priority' holds a value that does not fit "
            f"its {RULE_TABLE_DTYPE['priority']} width")
    # Rules are validated against the field ranges, so both ends fit 32 bits
    # once ``hi`` is made inclusive.
    table = {
        "lo": bounds[:, :, 0].astype(RULE_TABLE_DTYPE["lo"].base),
        "hi": (bounds[:, :, 1] - 1).astype(RULE_TABLE_DTYPE["hi"].base),
        "priority": np.array(priorities, dtype=RULE_TABLE_DTYPE["priority"]),
    }
    if prefix is None:
        return table
    return {name: np.concatenate([prefix[name], column])
            for name, column in table.items()}


#: Leaf-rule rows up to which :meth:`Forest.lookup` tests the reached spans
#: in one pass rather than in lock-step.  One pass is a fixed ~25 NumPy calls
#: plus work in every row of every span; lock-step is ~20 calls per row
#: position (up to ``binth`` rounds) but drops each lane at its first hit.
#: On the benchmark's HiCuts and EffiCuts engines one pass is 20-35% faster
#: up to ~2,000 rows and the two break even between ~6,000 and ~12,000
#: rows; this sits below the lowest break-even.  Serving's cache-miss walks
#: (at most 64 packets) fall under it, 4,096-packet scans far above.
_ONE_PASS_ROWS = 4096


class Forest:
    """The tables of one engine generation, as columns.

    ``node``, ``rule`` and ``table`` map each field name of
    :data:`NODE_DTYPE` / :data:`RULE_DTYPE` / :data:`RULE_TABLE_DTYPE` to
    one array of exactly that field's width.  The arrays are read-only from
    construction on: a background builder reads the serving generation's
    forest while the serving thread walks it, and the next generation is
    always a fresh forest (which may share the distinct-rule ``table``
    columns when no rule was added).
    """

    def __init__(self, node: Mapping[str, np.ndarray],
                 rule: Mapping[str, np.ndarray],
                 table: Mapping[str, np.ndarray]) -> None:
        self.node = _frozen_columns(node, NODE_DTYPE, "node")
        self.rule = _frozen_columns(rule, RULE_DTYPE, "leaf rule")
        self.table = _frozen_columns(table, RULE_TABLE_DTYPE, "rule table")
        #: Whether any row needs the split arm of the level loop; cut-only
        #: forests (HiCuts, HyperCuts, EffiCuts) skip it.
        self.has_split = bool((self.node["kind"] == KIND_SPLIT).any())

    @classmethod
    def concatenate(cls, trees: Sequence["FlatTree"],
                    table: Mapping[str, np.ndarray]) -> "Forest":
        """A new forest holding a copy of each tree's block, in order.

        Block-internal indices are relative, so this is one
        ``np.concatenate`` per column and no row is rewritten.  ``table``
        must describe every rule the trees' slots point at.  A stretched
        block (a partial recompile's) is copied whole, spans and the rows
        between them included: exact, not compact.
        """
        node_blocks = [(t.forest.node, t.node_rows) for t in trees]
        rule_blocks = [(t.forest.rule, t.rule_rows) for t in trees]
        return cls(
            {name: np.concatenate([node[name][rows]
                                   for node, rows in node_blocks])
             for name in NODE_DTYPE.names},
            {name: np.concatenate([rule[name][rows]
                                   for rule, rows in rule_blocks])
             for name in RULE_DTYPE.names},
            table,
        )

    def memory_bytes(self) -> int:
        """Bytes held by every column of the three tables."""
        return sum(column.nbytes
                   for columns in (self.node, self.rule, self.table)
                   for column in columns.values())

    # ------------------------------------------------------------------ #
    # The walk
    # ------------------------------------------------------------------ #
    #
    # ``node_base`` / ``rule_base`` / ``depth`` are per-tree int64 vectors
    # naming the blocks to walk.  Lanes are laid out tree-major: lane
    # ``t * n + p`` is packet ``p`` in tree ``t``.

    def descend(self, values: np.ndarray, node_base: np.ndarray,
                depth: np.ndarray) -> np.ndarray:
        """Node row of the leaf every lane reaches, ``(trees * n,)`` int64.

        All lanes advance one level per iteration; a lane leaves the active
        set when it reaches a leaf, so the loop runs at most ``max(depth)``
        times regardless of batch size or tree count.  A lane still
        descending past its own tree's recorded depth means a corrupt table
        and raises ``RuntimeError``.
        """
        n = len(values)
        node = self.node
        kind, start = node["kind"], node["start"]
        # ``values`` is check_headers' uint32 matrix, the node columns' type:
        # ``value - lo`` of a cut the value lies in cannot wrap.
        flat = values.ravel()
        lane_cell = np.tile(
            np.arange(0, n * NUM_DIMENSIONS, NUM_DIMENSIONS), len(node_base))
        lane_base = np.repeat(node_base, n)
        lane_bound = np.repeat(depth + 1, n)
        first_bound = int(depth.min()) + 1  # no lane can overrun before this
        leaf = lane_base.copy()
        active = np.flatnonzero(kind[leaf] != KIND_LEAF)
        cur = leaf[active]
        level = 0
        while active.size:
            if level > first_bound and (level > lane_bound[active]).any():
                raise RuntimeError("flat tree deeper than its recorded depth")
            level += 1
            v = flat[lane_cell[active] + node["dim"][cur]]
            lo = node["lo"][cur]
            offset = v - lo
            base = node["base"][cur]
            if self.has_split:
                split = kind[cur] == KIND_SPLIT
                # Split rows store base 0 and their boundary in ``lo``; give
                # the cut arithmetic a divisor for them (its result, wrapped
                # or not, is replaced below).
                base = np.where(split, 1, base)
            # The first ``rem`` children are ``base + 1`` wide, the rest
            # ``base``: value ``offset`` lies in child ``offset // (base + 1)``
            # if that is below ``rem``, else in ``(offset - rem) // base``.
            # Each formula undershoots outside its own region (the second
            # clamped at 0: the arithmetic is unsigned), so the larger of
            # the two is the child.
            rem = np.minimum(node["rem"][cur], offset)
            child = np.maximum(offset // (base + 1), (offset - rem) // base)
            if self.has_split:
                child = np.where(split, v >= lo, child)
            cur = lane_base[active] + start[cur] + child
            leaf[active] = cur
            descending = kind[cur] != KIND_LEAF
            active = active[descending]
            cur = cur[descending]
        return leaf

    def lookup(self, values: np.ndarray, node_base: np.ndarray,
               rule_base: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Leaf-rule row matched by every lane (``-1``: none), int64.

        Descends all lanes, then scans the reached leaf spans, each
        highest-priority-first so the first hit wins.  When the spans hold
        at most :data:`_ONE_PASS_ROWS` rows together, every row is tested in
        one pass; otherwise the spans are scanned in lock-step: step ``k``
        tests the box the ``k``-th row of every leaf still unresolved points
        at, so the Python-level work is bounded by the widest leaf.  Both
        forms return the same rows.
        """
        leaf = self.descend(values, node_base, depth)
        n = len(values)
        row = np.repeat(rule_base, n) + self.node["start"][leaf]
        count = self.node["count"][leaf]
        total = int(count.sum())
        if total <= _ONE_PASS_ROWS:
            return self._scan_once(values, row, count, total)
        matched = np.full(len(leaf), -1, dtype=np.int64)
        stop = row + count
        pending = np.flatnonzero(count)
        row = row[pending]
        stop = stop[pending]
        v = values.take(pending % n, axis=0)
        slot = self.rule["rule_index"]
        while True:
            hit = self._boxes_hold(slot.take(row), v)
            matched[pending[hit]] = row[hit]
            row += 1
            more = np.flatnonzero(~hit & (row < stop))
            if not more.size:
                return matched
            pending = pending[more]
            row = row[more]
            stop = stop[more]
            v = v.take(more, axis=0)

    def _scan_once(self, values: np.ndarray, row: np.ndarray,
                   count: np.ndarray, total: int) -> np.ndarray:
        """The leaf scan in one pass: lane ``i``'s span is ``count[i]``
        leaf-rule rows from ``row[i]``; ``total`` is their sum."""
        matched = np.full(len(row), -1, dtype=np.int64)
        if not total:
            return matched
        # Every span's rows laid end to end, lane by lane: flat position
        # ``j`` of lane ``i`` is row ``row[i] + j - first[i]``.
        first = np.cumsum(count) - count
        rows = np.repeat(row - first, count) + np.arange(total)
        lane = np.repeat(np.arange(len(row)), count)
        hit = np.flatnonzero(self._boxes_hold(
            self.rule["rule_index"].take(rows),
            values.take(lane % len(values), axis=0)))
        # Hits are in lane order, each lane's highest priority first: keep
        # the first hit of every lane.
        hit_lane = lane[hit]
        first_hit = np.empty(len(hit), dtype=bool)
        first_hit[:1] = True
        np.not_equal(hit_lane[1:], hit_lane[:-1], out=first_hit[1:])
        matched[hit_lane[first_hit]] = rows[hit[first_hit]]
        return matched

    def _boxes_hold(self, rule: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Whether the box of rule slot ``rule[i]`` holds header ``v[i]``."""
        inside = (self.table["lo"].take(rule, axis=0) <= v) \
            & (v <= self.table["hi"].take(rule, axis=0))
        # AND of the five columns; ``inside.all(axis=1)`` reduces row by row
        # and costs more than the rest of the test together.
        hit = inside[:, 0]
        for dim in range(1, NUM_DIMENSIONS):
            hit = hit & inside[:, dim]
        return hit


@dataclass
class FlatTree:
    """One cut/split-only search tree: a view of one block of a forest.

    ``num_leaf_rules`` runs from the block's first leaf-rule row to the end
    of the last span a leaf of it points at, so after a partial recompile it
    covers the spans appended past the original block too (and whatever lies
    between); ``max_leaf_span`` is at least the widest of them.
    """

    forest: Forest
    node_offset: int
    num_nodes: int
    rule_offset: int
    num_leaf_rules: int
    depth: int
    max_leaf_span: int

    @property
    def node_rows(self) -> slice:
        return slice(self.node_offset, self.node_offset + self.num_nodes)

    @property
    def rule_rows(self) -> slice:
        return slice(self.rule_offset, self.rule_offset + self.num_leaf_rules)

    @property
    def nodes(self) -> np.ndarray:
        """This tree's node rows as :data:`NODE_DTYPE` records (a copy).

        For introspection and tests; no lookup path reads it.
        """
        return _records(self.forest.node, NODE_DTYPE, self.node_rows)

    @property
    def leaf_rules(self) -> np.ndarray:
        """This tree's leaf-rule rows as :data:`LEAF_RULE_DTYPE` records.

        A copy assembled by gather: each row's slot beside the box and
        priority of the distinct rule it points at.
        """
        slots = self.forest.rule["rule_index"][self.rule_rows]
        records = np.empty(len(slots), dtype=LEAF_RULE_DTYPE)
        records["rule_index"] = slots
        for name, column in self.forest.table.items():
            records[name] = column[slots]
        return records

    def memory_bytes(self) -> int:
        """Bytes this tree's block occupies in the node and leaf rule tables
        (a stretched block's rows included).

        The distinct-rule table belongs to the forest, not to any one tree.
        """
        return sum(c[self.node_rows].nbytes
                   for c in self.forest.node.values()) \
            + sum(c[self.rule_rows].nbytes for c in self.forest.rule.values())

    # ------------------------------------------------------------------ #
    # Per-tree lookup: the forest walk with one tree
    # ------------------------------------------------------------------ #

    def descend(self, values: np.ndarray) -> np.ndarray:
        """Return the leaf node index reached by every packet of a batch.

        ``values`` is an ``(n, 5)`` integer array of packet headers; indices
        are relative to this tree's block.
        """
        values = check_headers(values)
        leaf = self.forest.descend(
            values, np.array([self.node_offset]), np.array([self.depth]))
        return leaf - self.node_offset

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """Classify a batch against this tree.

        Returns an ``(n,)`` int64 array of rows into this tree's block of
        the leaf rule table (``-1`` where the reached leaf matches
        nothing).
        """
        values = check_headers(values)
        rows = self.forest.lookup(
            values, np.array([self.node_offset]),
            np.array([self.rule_offset]), np.array([self.depth]))
        return np.where(rows >= 0, rows - self.rule_offset, -1)


_HEADER = attrgetter("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


def packets_to_array(packets) -> np.ndarray:
    """Stack packets (or raw 5-tuples) into the ``(n, 5)`` header matrix."""
    packets = list(packets)
    if not packets:
        return np.empty((0, NUM_DIMENSIONS), dtype=np.int64)
    if set(map(type, packets)) == {Packet}:
        # Fields read in C and streamed straight into the matrix: no
        # ``Packet.__iter__`` call and no nested-sequence probing per row.
        return np.fromiter(
            chain.from_iterable(map(_HEADER, packets)), np.int64,
            NUM_DIMENSIONS * len(packets)).reshape(-1, NUM_DIMENSIONS)
    return np.asarray([tuple(p) for p in packets], dtype=np.int64)

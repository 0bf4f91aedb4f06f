"""Decision-tree node.

A node owns a box (one half-open range per dimension), the rules intersecting
that box, its depth, and — once an action has been applied to it — the action
and the resulting children.  Partition children keep their parent's box but a
restricted *partition state*: per-dimension coverage bounds that tell the
NeuroCuts agent which "shape" of rules live below this node (Appendix A).

Cutting is where tree construction spends its time, so the cut family works
on columns: a node knows which rows of a shared
:class:`~repro.rules.bounds.RuleBounds` table its rules occupy, and one
application of a cut computes, for all children at once, which rules reach
into each child and which are shadowed there (see :meth:`Node._cut_children`).
The children of a cut stay one :class:`ChildBlock` of arrays; a child becomes
a :class:`Node` only when it is read — by the depth-first builder that acts
on it, or by whatever asks for its parent's ``children``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import InvalidActionError
from repro.rules.bounds import RuleBounds
from repro.rules.fields import DIMENSIONS, Dimension, Range, Ranges
from repro.rules.rule import Rule, find_rule
from repro.tree.actions import (
    Action,
    CutAction,
    EffiCutsPartitionAction,
    MultiCutAction,
    PARTITION_LEVELS,
    PartitionAction,
    SplitAction,
    is_partition,
)

_node_counter = itertools.count()

#: Dimensions of a bounds key (see :func:`_box_key`), whose rows are the
#: lower bounds, then the upper bounds negated.
_WIDTH = len(DIMENSIONS)

#: Full partition state: rules of any coverage may be present (levels 0..100%).
FULL_PARTITION_STATE: Tuple[Tuple[int, int], ...] = tuple(
    (0, len(PARTITION_LEVELS) - 1) for _ in DIMENSIONS
)


@dataclass
class Node:
    """A single node of a packet-classification decision tree.

    Attributes:
        ranges: the box this node covers, one half-open range per dimension.
        rules: rules intersecting the box, highest priority first.
        depth: root has depth 0.
        partition_state: per-dimension (min_level, max_level) indices into
            :data:`PARTITION_LEVELS`, describing which coverage fractions of
            rules may appear in this node after partition actions above it.
        efficuts_category: index of the EffiCuts separable category this node
            was assigned by an EffiCuts partition, or ``None``.
        action: the action applied to this node (``None`` while it is a leaf).
        children: child nodes created by ``action`` (a property: a cut's
            children are built from its :class:`ChildBlock` on first read).
        forced_leaf: True if tree construction terminated this node early
            (depth truncation), regardless of how many rules it still holds.

    ``rules`` is the truth.  The node's array state — the bounds table its
    rules are rows of, and those rows in ``rules`` order — is derived from
    it on demand (:meth:`rule_bounds`) and handed to children as they are
    created, so construction never re-derives it.  Code that edits ``rules``
    in place must do so through :meth:`insert_rule` / :meth:`discard_rule`,
    which drop the derived rows; it is left out of equality and ``repr``.
    """

    ranges: Ranges
    rules: List[Rule]
    depth: int = 0
    partition_state: Tuple[Tuple[int, int], ...] = FULL_PARTITION_STATE
    efficuts_category: Optional[int] = None
    action: Optional[Action] = None
    forced_leaf: bool = False
    node_id: int = field(default_factory=lambda: next(_node_counter))
    _bounds: Optional[RuleBounds] = field(
        default=None, init=False, compare=False, repr=False)
    _rows: Optional[np.ndarray] = field(
        default=None, init=False, compare=False, repr=False)
    _children: Optional[List["Node"]] = field(
        default=None, init=False, compare=False, repr=False)
    _block: Optional["ChildBlock"] = field(
        default=None, init=False, compare=False, repr=False)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def num_rules(self) -> int:
        """Number of rules stored at this node."""
        return len(self.rules)

    @property
    def is_leaf(self) -> bool:
        """True if no action has been applied to this node."""
        return self.action is None

    @property
    def children(self) -> List["Node"]:
        """The nodes ``action`` created; a cut's are built (all at once, the
        same :class:`Node` objects for a child the builder already read)
        the first time they are asked for."""
        if self._children is None:
            block, self._block = self._block, None
            self._children = [] if block is None else block.nodes()
        return self._children

    @children.setter
    def children(self, nodes: List["Node"]) -> None:
        self._children, self._block = nodes, None

    @property
    def num_children(self) -> int:
        """How many children ``action`` created (builds none)."""
        return len(self.children) if self._block is None else len(self._block)

    def child_parts(self) -> Tuple[List["Node"], List[int]]:
        """The children that exist as nodes, and the rule counts of the
        rest: slots of a cut's block nobody has read, every one a leaf.
        Builds nothing."""
        if self._block is None:
            return self.children, []
        return self._block.parts()

    @property
    def is_partition_node(self) -> bool:
        """True if the applied action partitions rules instead of cutting."""
        return self.action is not None and is_partition(self.action)

    def is_terminal(self, leaf_threshold: int) -> bool:
        """True if this node needs no further splitting."""
        return self.forced_leaf or self.num_rules <= leaf_threshold

    def range_for(self, dim: Dimension | int) -> Range:
        """This node's range along one dimension."""
        return self.ranges[int(dim)]

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, depth={self.depth}, rules={self.num_rules}, "
            f"children={self.num_children}, "
            f"action={self.action.describe() if self.action else None})"
        )

    # ------------------------------------------------------------------ #
    # Rules as rows of a bounds table
    # ------------------------------------------------------------------ #

    def bind(self, bounds: RuleBounds,
             rows: Optional[np.ndarray] = None) -> None:
        """Declare this node's rules to be rows of ``bounds``.

        ``rows`` lists them in ``rules`` order; left out, they are looked up
        when first needed.
        """
        self._bounds, self._rows = bounds, rows

    def release_rows(self) -> None:
        """Forget the derived rows: only a node that may still be cut needs
        them, and they are looked up again if it ever is."""
        self._rows = None

    def _table_rows(self) -> Tuple[RuleBounds, np.ndarray]:
        if self._rows is None:
            rows = None if self._bounds is None \
                else self._bounds.rows_of(self.rules)
            if rows is None:
                # Unbound, or holding a rule the bound table lacks (one a
                # classifier update inserted): a table of this node's own.
                self._bounds = RuleBounds(self.rules)
                rows = np.arange(len(self.rules))
            self._rows = rows
        return self._bounds, self._rows

    def rule_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` of this node's rules: two ``(num_rules, 5) int64``
        arrays, row ``i`` describing ``rules[i]``."""
        table, rows = self._table_rows()
        return table.lo[rows], table.hi[rows]

    def insert_rule(self, rule: Rule) -> bool:
        """Add a rule at its priority position, after any rules of equal
        priority; False if an equal rule is already held."""
        index = find_rule(self.rules, rule)
        if index >= 0:
            return False
        self.rules.insert(~index, rule)
        self.release_rows()
        return True

    def discard_rule(self, rule: Rule) -> bool:
        """Drop the first rule equal to ``rule``; False if none is held."""
        index = find_rule(self.rules, rule)
        if index < 0:
            return False
        del self.rules[index]
        self.release_rows()
        return True

    def _child(self, rules: List[Rule], rows: np.ndarray, *,
               partition_state: Optional[Tuple[Tuple[int, int], ...]] = None,
               efficuts_category: Optional[int] = None) -> "Node":
        """A partition child holding ``rules`` (rows ``rows`` of this node's
        table) in this node's box; whatever placement is not given is
        inherited."""
        child = Node(
            ranges=self.ranges,
            rules=rules,
            depth=self.depth + 1,
            partition_state=self.partition_state if partition_state is None
            else partition_state,
            efficuts_category=self.efficuts_category
            if efficuts_category is None else efficuts_category,
        )
        child.bind(self._bounds, rows)
        return child

    # ------------------------------------------------------------------ #
    # Applying actions
    # ------------------------------------------------------------------ #

    def apply(self, action: Action, *, prune_redundant: bool = True) -> List["Node"]:
        """Apply an action to this node, creating and returning its children.

        Raises:
            InvalidActionError: if an action has already been applied, or the
                action cannot produce at least two children on this node.
        """
        self.grow(action, prune_redundant=prune_redundant)
        return self.children

    def grow(self, action: Action, *,
             prune_redundant: bool = True) -> Union["ChildBlock", List["Node"]]:
        """:meth:`apply` without building a cut's children: they come back
        as the :class:`ChildBlock` that ``children`` is built from later
        (a partition's, 2 to 32 of them, come back as nodes).

        Raises:
            InvalidActionError: as :meth:`apply`.
        """
        if self.action is not None:
            raise InvalidActionError(f"node {self.node_id} already has an action")
        if isinstance(action, CutAction):
            children = self._cut_children(
                [(action.dimension,
                  self.cut_points(action.dimension, action.num_cuts))],
                prune_redundant)
        elif isinstance(action, MultiCutAction):
            children = self._cut_children(
                [(dim, self.cut_points(dim, n)) for dim, n in action.cuts],
                prune_redundant)
        elif isinstance(action, SplitAction):
            children = self._cut_children(
                [(action.dimension, self._split_points(action))],
                prune_redundant)
        elif isinstance(action, PartitionAction):
            children = self._apply_partition(action)
        elif isinstance(action, EffiCutsPartitionAction):
            children = self._apply_efficuts_partition(action)
        else:
            raise InvalidActionError(f"unsupported action type: {type(action)!r}")

        self.action = action
        if isinstance(children, ChildBlock):
            self._children, self._block = None, children
        else:
            self.children = children
        self.release_rows()  # the children carry theirs
        return children

    # -- cut-family actions --------------------------------------------- #

    def cut_points(self, dimension: Dimension, num_cuts: int) -> List[int]:
        """Boundaries of the equal sub-ranges a cut would produce: child ``c``
        covers ``[points[c], points[c + 1])``.  There are fewer than
        ``num_cuts`` children when the node's range has fewer distinct
        values than requested cuts."""
        lo, hi = self.ranges[int(dimension)]
        span = hi - lo
        effective = min(num_cuts, span)
        if effective < 2:
            raise InvalidActionError(
                f"cannot cut dimension {dimension.name} of width {span}"
            )
        # Distribute the span as evenly as integer arithmetic allows: the
        # first ``remainder`` children are one value wider.
        base, remainder = divmod(span, effective)
        wide_end = lo + remainder * (base + 1)
        return list(range(lo, wide_end, base + 1)) \
            + list(range(wide_end, hi + 1, base))

    def cut_ranges(self, dimension: Dimension, num_cuts: int) -> List[Range]:
        """The equal sub-ranges a cut would produce (see :meth:`cut_points`)."""
        points = self.cut_points(dimension, num_cuts)
        return list(zip(points, points[1:]))

    def _split_points(self, action: SplitAction) -> List[int]:
        lo, hi = self.ranges[int(action.dimension)]
        if not lo < action.split_point < hi:
            raise InvalidActionError(
                f"split point {action.split_point} outside node range [{lo}, {hi})"
            )
        return [lo, action.split_point, hi]

    def _cut_children(self, cuts: Sequence[Tuple[Dimension, List[int]]],
                      prune_redundant: bool) -> "ChildBlock":
        """Children of cutting along one or more dimensions at once.

        ``cuts`` pairs each cut dimension with its boundary points.  The
        children are the product of the per-dimension sub-ranges, first
        dimension slowest.  A child holds the rules that intersect its box,
        minus (when pruning) those that cannot win inside it — see
        :func:`remove_redundant_rules` for the rule.

        Along a cut dimension a rule reaches a run of consecutive children,
        and only that dimension's clip differs from child to child.  So
        containment in the uncut dimensions (clipped to this node's box) is
        decided once per pair of rules.  A node whose rules x rules x
        children grid has at most :data:`_DENSE_CELLS` cells then tests
        every rule and pair against every child at once
        (:func:`_held_densely`).  A larger one works from runs: along each
        cut dimension the children a rule reaches, and those in which a
        pair stays nested, are runs known from the boundary points alone
        (:func:`_cut_reach`, :meth:`_shadowed`); no child is visited rule
        by rule.
        """
        table, rows = self._table_rows()
        dims = [int(dim) for dim, _ in cuts]
        points = [pts for _, pts in cuts]
        shape = tuple(len(pts) - 1 for pts in points)
        count = len(rows)
        # The rules' bounds clipped to this node's box, in key form.
        key = np.maximum(table.key.take(rows, axis=1), _box_key(self.ranges))
        if count * count * math.prod(shape) <= _DENSE_CELLS:
            held = _held_densely(key, dims, points, prune_redundant)
        else:
            reach = _cut_reach(key, dims, points)
            # held[c1, .., cq, j]: rule j intersects the child at (c1, .., cq).
            held = (key[:_WIDTH] + key[_WIDTH:] < 0).all(axis=0)
            for axis, size in enumerate(shape):
                child = np.arange(size).reshape(
                    (-1,) + (1,) * (len(shape) - axis))
                held = held & (reach[0, axis] <= child) \
                    & (child < reach[1, axis])
            if prune_redundant:
                shadowed = self._shadowed(key, dims, points, reach)
                if shadowed is not None:
                    held &= ~shadowed

        # One pass over the grid, children in order, rules in order within.
        held = held.reshape(math.prod(shape), count)
        return ChildBlock(self, cuts, held.sum(axis=1).tolist(),
                          held.nonzero()[1])

    @staticmethod
    def _shadowed(key: np.ndarray, dims: List[int],
                  points: List[List[int]], reach: np.ndarray
                  ) -> Optional[np.ndarray]:
        """``shadowed[c1, .., cq, j]``: inside child ``(c1, .., cq)`` an
        earlier rule's clip contains rule ``j``'s clip; ``None`` when no
        pair of rules nests in the uncut dimensions, so none can be.

        ``key`` holds the rules' bounds clipped to the node's box (see
        :func:`_box_key`) and ``reach`` their runs of children along each
        cut dimension (:func:`_cut_reach`).  For a pair ``i < j`` nested in
        the uncut dimensions, ``i``'s clip contains ``j``'s along a cut
        dimension in child ``c`` iff ``lo_i <= max(lo_j, start_c)`` and
        ``hi_i >= min(hi_j, end_c)``.  The first holds from the first child
        ``j`` reaches if ``lo_i <= lo_j``, else from the first child
        starting at or after ``lo_i``; the second, mirrored, up to the last
        child ``j`` reaches or the last ending at or before ``hi_i``.  So
        each pair shadows ``j`` in a box of the child grid, perhaps an
        empty one.  The non-empty boxes are summed as a difference array
        (+1/-1 at the 2^q corners, all of them in one weighted
        ``bincount``, then running sums), which costs one entry per pair and
        corner however many children a box spans.
        """
        uncut = [d for d in range(_WIDTH) if d not in dims]
        uncut_key = key.take(uncut + [_WIDTH + d for d in uncut], axis=0)
        shape = tuple(len(pts) - 1 for pts in points)
        count = key.shape[1]
        grid = tuple(size + 1 for size in shape) + (count,)
        marks = None
        for i, j in _nested_pairs(uncut_key):
            if marks is None:
                marks = np.zeros(math.prod(grid))
                strides = np.array([math.prod(grid[axis + 1:])
                                    for axis in range(len(dims))])[:, None]
                # Each corner's sign, corners in the order built below.
                signs = np.array([(-1.0) ** sum(upper) for upper in
                                  itertools.product((0, 1), repeat=len(dims))])
            inner, outer = reach[:4, :, j], reach[2:, :, i]
            # box[0]: the first child of the run; box[1]: one past the last.
            box = np.where(outer[:2] <= inner[2:], inner[:2], outer[2:])
            real = (box[0] < box[1]).all(axis=0)
            j = j[real]
            box = box[:, :, real] * strides
            # Offsets of the box's corners in the flat grid, first axis
            # slowest: (2, .., 2, pairs).
            at = box[:, 0]
            for axis in range(1, len(dims)):
                at = at[..., None, :] + box[:, axis]
            marks += np.bincount((at + j).ravel(),
                                 weights=np.repeat(signs, len(j)),
                                 minlength=marks.size)
        if marks is None:
            return None
        marks = marks.reshape(grid)
        for axis in range(len(dims)):
            marks = marks.cumsum(axis=axis)
        return marks[tuple(slice(size) for size in shape)] > 0

    # -- partition-family actions ---------------------------------------- #

    def _pick(self, wanted: Sequence[bool]) -> Tuple[List[Rule], np.ndarray]:
        """The rules flagged in ``wanted``, and their rows."""
        picks = np.flatnonzero(wanted)
        return ([self.rules[i] for i in picks.tolist()],
                self._table_rows()[1][picks])

    def _apply_partition(self, action: PartitionAction) -> List["Node"]:
        large = np.array([
            rule.coverage_fraction(action.dimension) > action.threshold
            for rule in self.rules
        ], dtype=bool)
        if large.all() or not large.any():
            raise InvalidActionError(
                "partition does not separate rules into two non-empty groups"
            )
        threshold_level = _nearest_level(action.threshold)
        dim = int(action.dimension)
        children = []
        for wanted, bounds in (
            (~large, (0, threshold_level)),
            (large, (threshold_level, len(PARTITION_LEVELS) - 1)),
        ):
            state = list(self.partition_state)
            state[dim] = bounds
            children.append(self._child(*self._pick(wanted),
                                        partition_state=tuple(state)))
        return children

    def _apply_efficuts_partition(self,
                                  action: EffiCutsPartitionAction) -> List["Node"]:
        masks = np.array([efficuts_mask(rule, action.largeness_threshold)
                          for rule in self.rules], dtype=np.int64)
        categories = np.unique(masks).tolist()
        if len(categories) < 2:
            raise InvalidActionError(
                "EffiCuts partition produces fewer than two non-empty categories"
            )
        return [self._child(*self._pick(masks == category),
                            efficuts_category=category)
                for category in categories]


class ChildBlock(Sequence[Node]):
    """The children of one cut, kept as arrays; a child becomes a
    :class:`Node` only when it is read.

    The children are the product of the cut dimensions' sub-ranges, first
    dimension slowest (:attr:`ranges`, ``(k, 5, 2)``, is derived from the
    cut points on request).  Child ``i`` holds ``sizes[i]`` of its parent's
    rules, in priority order: those at ``picks[offsets[i]:offsets[i + 1]]``
    of the parent's rule list (a CSR over the parent's rows of its bounds
    table).  ``terminal[i]`` marks a child the tree will not cut (it holds
    few enough rules; the tree sets these) and ``forced[i]`` a forced leaf.

    ``block[i]`` builds child ``i`` on first read and returns that same node
    ever after; :meth:`nodes` builds the rest.  A slot nobody has read is a
    leaf, so tree statistics price it from its size alone (:meth:`parts`).
    """

    __slots__ = ("sizes", "offsets", "picks", "terminal", "forced", "_depth",
                 "_cuts", "_box", "_rules", "_rows", "_table", "_state",
                 "_category", "_first_id", "_nodes")

    def __init__(self, parent: Node, cuts: Sequence[Tuple[Dimension, List[int]]],
                 sizes: List[int], picks: np.ndarray) -> None:
        self.sizes = sizes
        self.offsets = list(itertools.accumulate(sizes, initial=0))
        self.picks = picks
        self.terminal = [False] * len(sizes)
        self.forced = [False] * len(sizes)
        self._depth = parent.depth + 1
        self._cuts = [(int(dim), points) for dim, points in cuts]
        self._box = parent.ranges
        table, self._rows = parent._table_rows()
        self._table = table
        # The parent's rules as they were cut: a later edit of its list must
        # not shift what ``picks`` points at.
        self._rules = tuple(parent.rules)
        self._state = parent.partition_state
        self._category = parent.efficuts_category
        # Child i's node_id is taken now, as if every child were built in
        # order, so copies of a tree agree on ids whatever they build first.
        self._first_id = next(_node_counter)
        if len(sizes) > 1:
            next(itertools.islice(_node_counter, len(sizes) - 2, None))
        self._nodes: List[Optional[Node]] = [None] * len(sizes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, index: int) -> Node:
        node = self._nodes[index]
        if node is None:
            index %= len(self._nodes)
            node = self._nodes[index] = self._build(index)
        return node

    def child_ranges(self, index: int) -> Ranges:
        """Child ``index``'s box: the parent's, with the sub-range of each
        cut dimension put in."""
        ranges = list(self._box)
        for dim, points in reversed(self._cuts):
            index, cell = divmod(index, len(points) - 1)
            ranges[dim] = (points[cell], points[cell + 1])
        return tuple(ranges)

    @property
    def ranges(self) -> np.ndarray:
        """Every child's box, ``(k, 5, 2)``."""
        return np.array([self.child_ranges(i) for i in range(len(self))],
                        dtype=np.int64).reshape(len(self), _WIDTH, 2)

    def _build(self, index: int) -> Node:
        start, end = self.offsets[index], self.offsets[index + 1]
        picks = self.picks[start:end]
        rules = self._rules
        forced = self.forced[index]
        node = Node(
            ranges=self.child_ranges(index),
            rules=[rules[i] for i in picks.tolist()],
            depth=self._depth,
            partition_state=self._state,
            efficuts_category=self._category,
            forced_leaf=forced,
            node_id=self._first_id + index,
        )
        # Only a child that may still be cut needs its rows.
        node.bind(self._table, None if forced or self.terminal[index]
                  else self._rows[picks])
        return node

    def nodes(self) -> List[Node]:
        """Every child as a node, building those nobody has read yet."""
        nodes = self._nodes
        for index, node in enumerate(nodes):
            if node is None:
                nodes[index] = self._build(index)
        return nodes

    def parts(self) -> Tuple[List[Node], List[int]]:
        """The children built so far, and the rule counts of the rest."""
        nodes = self._nodes
        return ([node for node in nodes if node is not None],
                [size for size, node in zip(self.sizes, nodes) if node is None])

    def is_built(self, index: int) -> bool:
        """True once child ``index`` has been read as a node."""
        return self._nodes[index] is not None


def _nearest_level(threshold: float) -> int:
    """Index of the discrete partition level closest to ``threshold``."""
    return min(
        range(len(PARTITION_LEVELS)),
        key=lambda i: abs(PARTITION_LEVELS[i] - threshold),
    )


def efficuts_mask(rule: Rule, largeness_threshold: float = 0.5) -> int:
    """A rule's EffiCuts category: the bitmask of dimensions it is "large"
    in, i.e. where its coverage fraction exceeds the threshold."""
    mask = 0
    for dim in DIMENSIONS:
        if rule.coverage_fraction(dim) > largeness_threshold:
            mask |= 1 << int(dim)
    return mask


def efficuts_categories(rules: Sequence[Rule],
                        largeness_threshold: float = 0.5) -> List[List[Rule]]:
    """Group rules into EffiCuts separable categories.

    The category index is the rule's :func:`efficuts_mask`, so rules with
    the same shape end up in the same tree and replication from wildcard-ish
    fields is avoided.
    """
    num_categories = 1 << len(DIMENSIONS)
    buckets: List[List[Rule]] = [[] for _ in range(num_categories)]
    for rule in rules:
        buckets[efficuts_mask(rule, largeness_threshold)].append(rule)
    return buckets


# --------------------------------------------------------------------------- #
# Array geometry shared by cutting, pruning and the builders' heuristics
# --------------------------------------------------------------------------- #

#: Most rule-pair comparisons (pairs x columns) held in memory at once: a
#: megabyte or so of temporaries however many rules a node holds.
_PAIR_BLOCK = 1 << 20

#: Largest rules x rules x children grid :meth:`Node._cut_children` tests
#: densely (every rule and pair against every child, :func:`_held_densely`)
#: rather than from runs and one difference box per nested pair: below it a
#: handful of array operations over the whole grid costs less than finding
#: the runs and pairs.
_DENSE_CELLS = 1 << 15


def child_spans(points: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and last child each range ``[lo, hi)`` reaches, for children
    ``[points[c], points[c + 1])``; ``last < first`` where it reaches none."""
    first = np.maximum(points.searchsorted(lo, side="right") - 1, 0)
    last = np.minimum(points.searchsorted(hi, side="left") - 1,
                      len(points) - 2)
    return first, last


def _box_key(box: Ranges) -> np.ndarray:
    """A box's bounds in the key form of :attr:`RuleBounds.key`, as one
    ``(10, 1)`` column: its lower bounds, then its upper bounds negated.
    ``np.maximum(key, _box_key(box))`` clips every rule to the box, and in
    key form "box ``i`` contains box ``j``" is ``key[:, i] <= key[:, j]``
    in every row."""
    return np.array([lo for lo, _ in box] + [-hi for _, hi in box],
                    dtype=np.int64)[:, None]


#: :func:`_cut_reach`'s one search, as ``(2, 2, 1)`` factors of a rule's
#: ``[lo, -hi]``: it looks up ``[[lo + 1, hi], [lo, hi + 1]]`` and takes
#: ``[[1, 0], [0, 1]]`` off the result.
_REACH_SIGN = np.array([[1, -1], [1, -1]]).reshape(2, 2, 1)
_REACH_OFFSET = np.array([[1, 0], [0, 1]]).reshape(2, 2, 1)


def _cut_reach(key: np.ndarray, dims: Sequence[int],
               points: Sequence[Sequence[int]]) -> np.ndarray:
    """``(6, q, n)``: per cut dimension and rule (bounds ``key``, clipped to
    the node's box), the first child the rule reaches and one past the
    last; its ``lo`` and ``-hi``; the first child starting at or after
    ``lo`` and one past the last ending at or before ``hi``.

    Integer bounds make ``searchsorted(v, "right")`` equal to
    ``searchsorted(v + 1, "left")``, so all four child indices come from
    one search; the bounds are clipped, so none needs clamping to the
    node's children.
    """
    reach = np.empty((6, len(dims), key.shape[1]), dtype=np.int64)
    for axis, (d, pts) in enumerate(zip(dims, points)):
        bounds = key[d::_WIDTH]
        reach[2:4, axis] = bounds
        found = np.asarray(pts).searchsorted(
            bounds * _REACH_SIGN + _REACH_OFFSET) - _REACH_OFFSET
        reach[:2, axis] = found[0]
        reach[4:, axis] = found[1]
    return reach


def _held_densely(key: np.ndarray, dims: List[int],
                  points: List[List[int]], prune_redundant: bool
                  ) -> np.ndarray:
    """``held[c, j]`` of :meth:`Node._cut_children` on a small node, the
    children ``c`` flattened, every rule against every child at once.

    Rule ``j`` (bounds ``key``, clipped to the node's box) is held where
    its clip to the child's box is non-empty.  Pruning, it is shadowed there
    when an earlier rule ``i`` contains that clip: ``i``'s key is at most
    ``j``'s in the uncut rows, and at most ``j``'s key clipped to the child
    in the cut ones (``max(key_i, b) <= max(key_j, b)`` iff ``key_i <=
    max(key_j, b)``).  Where ``j`` is not held the answer is not read.
    """
    q = len(dims)
    shape = tuple(len(pts) - 1 for pts in points)
    cut = dims + [_WIDTH + d for d in dims]
    # The cut rows (lower bounds, then upper bounds negated), then the uncut
    # rows in the same order.
    ordered = key.take(cut + [r for r in range(2 * _WIDTH) if r not in cut],
                       axis=0)
    cut_key, uncut_key = ordered[:2 * q], ordered[2 * q:]
    edges = np.empty((2 * q,) + shape, dtype=np.int64)
    for axis, pts in enumerate(points):
        pts = np.array(pts).reshape((-1,) + (1,) * (q - axis - 1))
        edges[axis] = pts[:-1]
        edges[q + axis] = -pts[1:]
    # clipped[r, c, j]: cut row r of rule j's key, clipped to child c.
    clipped = np.maximum(cut_key[:, None, :], edges.reshape(2 * q, -1, 1))
    held = ((clipped[:q] + clipped[q:] < 0).all(axis=0)
            & (uncut_key[:_WIDTH - q] + uncut_key[_WIDTH - q:] < 0).all(axis=0))
    if prune_redundant:
        count = key.shape[1]
        nested = (uncut_key[:, :, None] <= uncut_key[:, None, :]).all(axis=0) \
            & _earlier(count)
        if nested.any():
            # contains[i, c, j]: rule i's clip to child c contains rule j's.
            contains = (cut_key[:, :, None, None] <= clipped[:, None]).all(axis=0)
            held &= ~(contains & nested[:, None, :]).any(axis=0)
    return held


@functools.lru_cache(maxsize=256)
def _earlier(count: int) -> np.ndarray:
    """``earlier[i, j]``: ``i < j``, for ``count`` rules (read-only)."""
    earlier = np.triu(np.ones((count, count), dtype=bool), 1)
    earlier.flags.writeable = False
    return earlier


def _nested_pairs(key: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every pair of rules ``i < j`` with box ``i`` containing box ``j``
    (``key[:, i] <= key[:, j]`` in every row of a key-form table, see
    :func:`_box_key`), as index arrays, a block of ``j`` at a time so memory
    stays bounded."""
    width, count = key.shape
    step = max(1, _PAIR_BLOCK // max(1, count * width))
    for start in range(1, count, step):
        i, j = _nested_block(key, start, min(count, start + step)).nonzero()
        if len(i):
            yield i, j + start


def _nested_block(key: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``nested[i, j - start]`` for rules ``i < stop`` and
    ``start <= j < stop``: ``i < j`` and box ``i`` contains box ``j``.
    Compared bound by bound, a plane of rule pairs per row of ``key``."""
    row = np.arange(stop)
    return ((key[:, :stop, None] <= key[:, None, start:stop]).all(axis=0)
            & (row[:, None] < row[None, start:stop]))


def remove_redundant_rules(rules: Sequence[Rule], box: Ranges) -> List[Rule]:
    """Drop rules that can never win inside ``box``.

    Within the box, a rule is redundant if a higher-priority rule's
    intersection with the box fully covers its own intersection with the box.
    This is the standard rule-overlap pruning used by HiCuts-family builders;
    it only removes rules that are unreachable, so classification results are
    unchanged.

    Rules arrive highest priority first, and every *earlier* rule counts as
    a coverer, pruned or not: containment is transitive, so whatever covered
    a pruned coverer covers the rule too, and the first rule of such a chain
    is always kept.  Of two rules with identical clips the earlier stays.
    """
    key = np.maximum(RuleBounds(rules).key, _box_key(box))
    inside = np.flatnonzero((key[:_WIDTH] + key[_WIDTH:] < 0).all(axis=0))
    redundant = np.zeros(len(inside), dtype=bool)
    for _, j in _nested_pairs(key[:, inside]):
        redundant[j] = True
    return [rules[i] for i in inside[~redundant].tolist()]

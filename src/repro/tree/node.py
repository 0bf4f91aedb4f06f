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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

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
        children: child nodes created by ``action``.
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
    children: List["Node"] = field(default_factory=list)
    forced_leaf: bool = False
    node_id: int = field(default_factory=lambda: next(_node_counter))
    _bounds: Optional[RuleBounds] = field(
        default=None, init=False, compare=False, repr=False)
    _rows: Optional[np.ndarray] = field(
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
    def is_partition_node(self) -> bool:
        """True if the applied action partitions rules instead of cutting."""
        return self.action is not None and is_partition(self.action)

    def is_terminal(self, leaf_threshold: int) -> bool:
        """True if this node needs no further splitting."""
        return self.forced_leaf or self.num_rules <= leaf_threshold

    def contains_packet(self, values: Sequence[int]) -> bool:
        """True if the packet header values fall inside this node's box."""
        for value, (lo, hi) in zip(values, self.ranges):
            if not lo <= value < hi:
                return False
        return True

    def range_for(self, dim: Dimension | int) -> Range:
        """This node's range along one dimension."""
        return self.ranges[int(dim)]

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, depth={self.depth}, rules={self.num_rules}, "
            f"children={len(self.children)}, "
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
               ranges: Optional[Ranges] = None,
               partition_state: Optional[Tuple[Tuple[int, int], ...]] = None,
               efficuts_category: Optional[int] = None) -> "Node":
        """A child holding ``rules`` (rows ``rows`` of this node's table);
        whatever placement is not given is inherited."""
        child = Node(
            ranges=self.ranges if ranges is None else ranges,
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
        return [lo + i * base + min(i, remainder) for i in range(effective + 1)]

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
                      prune_redundant: bool) -> List["Node"]:
        """Children of cutting along one or more dimensions at once.

        ``cuts`` pairs each cut dimension with its boundary points.  The
        children are the product of the per-dimension sub-ranges, first
        dimension slowest.  A child holds the rules that intersect its box,
        minus (when pruning) those that cannot win inside it — see
        :func:`remove_redundant_rules` for the rule.

        Along a cut dimension a rule reaches a run of consecutive children,
        and only that dimension's clip differs from child to child.  So
        containment in the uncut dimensions (clipped to this node's box) is
        decided once per pair of rules, and along each cut dimension the
        children in which a pair stays nested are again a run, known from
        the boundary points alone; no child is visited rule by rule.
        """
        lo, hi = self.rule_bounds()
        dims = [int(dim) for dim, _ in cuts]
        points = [np.asarray(pts, dtype=np.int64) for _, pts in cuts]
        shape = tuple(len(pts) - 1 for pts in points)
        uncut = [d for d in range(len(DIMENSIONS)) if d not in dims]
        box = np.asarray(self.ranges, dtype=np.int64)
        clip_lo = np.maximum(lo[:, uncut], box[uncut, 0])
        clip_hi = np.minimum(hi[:, uncut], box[uncut, 1])

        # held[c1, .., cq, j]: rule j intersects the child at (c1, .., cq).
        spans = [child_spans(pts, lo[:, d], hi[:, d])
                 for d, pts in zip(dims, points)]
        held = (clip_lo < clip_hi).all(axis=1)
        for axis, (first, last) in enumerate(spans):
            child = np.arange(shape[axis]).reshape(
                (-1,) + (1,) * (len(shape) - axis))
            held = held & (first <= child) & (child <= last)
        if prune_redundant:
            held &= ~self._shadowed(lo, hi, clip_lo, clip_hi, dims, points,
                                    spans)

        # One pass over the grid, children in order, rules in order within.
        num_children = int(np.prod(shape))
        child_of, picks = np.nonzero(held.reshape(num_children, len(lo)))
        ends = np.cumsum(np.bincount(child_of, minlength=num_children))
        rules = [self.rules[i] for i in picks.tolist()]
        rows = self._rows[picks]
        sub_ranges = [list(zip(pts, pts[1:])) for _, pts in cuts]
        children = []
        start = 0
        for subs, end in zip(itertools.product(*sub_ranges), ends.tolist()):
            ranges = list(self.ranges)
            for d, sub in zip(dims, subs):
                ranges[d] = sub
            children.append(self._child(rules[start:end], rows[start:end],
                                        ranges=tuple(ranges)))
            start = end
        return children

    @staticmethod
    def _shadowed(lo: np.ndarray, hi: np.ndarray, clip_lo: np.ndarray,
                  clip_hi: np.ndarray, dims: List[int],
                  points: List[np.ndarray],
                  spans: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """``shadowed[c1, .., cq, j]``: inside child ``(c1, .., cq)`` an
        earlier rule's clip contains rule ``j``'s clip.

        For a pair ``i < j`` nested in the uncut dimensions, ``i``'s clip
        contains ``j``'s along cut dimension ``d`` in child ``c`` iff
        ``lo_i <= max(lo_j, start_c)`` and ``hi_i >= min(hi_j, end_c)``.
        Child starts and ends grow with ``c``, so that holds on a run of
        children ``[a, b]``; intersected with the children both rules reach,
        each pair shadows ``j`` in a box of the child grid.  The boxes are
        summed as a difference array (+1/-1 at the corners, then running
        sums), which costs one entry per pair and corner however many
        children a box spans.
        """
        count = len(lo)
        grid = tuple(len(pts) for pts in points) + (count,)
        marks = np.zeros(int(np.prod(grid)), dtype=np.int64)
        # Per rule and cut dimension: the first child starting at or after
        # the rule's lower bound, the last ending at or before its upper.
        edges = [(pts.searchsorted(lo[:, d], side="left"),
                  pts.searchsorted(hi[:, d], side="right") - 2)
                 for d, pts in zip(dims, points)]
        for i, j in _nested_pairs(clip_lo, clip_hi):
            low, high = [], []
            for d, (first, last), (starts_at, ends_by) in zip(
                    dims, spans, edges):
                low.append(np.maximum(first[j], np.where(
                    lo[i, d] <= lo[j, d], first[i], starts_at[i])))
                high.append(np.minimum(last[j], np.where(
                    hi[i, d] >= hi[j, d], last[i], ends_by[i])))
            real = np.all([a <= b for a, b in zip(low, high)], axis=0)
            j = j[real]
            low = [a[real] for a in low]
            high = [b[real] + 1 for b in high]
            for corner in itertools.product((False, True), repeat=len(dims)):
                at = np.ravel_multi_index(
                    [high[axis] if upper else low[axis]
                     for axis, upper in enumerate(corner)] + [j], grid)
                hits = np.bincount(at, minlength=marks.size)
                if sum(corner) % 2:
                    marks -= hits
                else:
                    marks += hits
        marks = marks.reshape(grid)
        for axis in range(len(dims)):
            marks = marks.cumsum(axis=axis)
        return marks[tuple(slice(size - 1) for size in grid[:-1])] > 0

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


def child_spans(points: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and last child each range ``[lo, hi)`` reaches, for children
    ``[points[c], points[c + 1])``; ``last < first`` where it reaches none."""
    first = np.maximum(points.searchsorted(lo, side="right") - 1, 0)
    last = np.minimum(points.searchsorted(hi, side="left") - 1,
                      len(points) - 2)
    return first, last


def _nested_pairs(lo: np.ndarray, hi: np.ndarray
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every pair of rows ``i < j`` with box ``i`` containing box ``j``
    (``lo_i <= lo_j`` and ``hi_i >= hi_j`` in every column), as index
    arrays, a block of ``j`` at a time so memory stays bounded."""
    count, width = lo.shape
    step = max(1, _PAIR_BLOCK // max(1, count * width))
    row = np.arange(count)
    for start in range(1, count, step):
        stop = min(count, start + step)
        nested = ((lo[:stop, None] <= lo[None, start:stop])
                  & (hi[:stop, None] >= hi[None, start:stop])).all(axis=2)
        nested &= row[:stop, None] < row[None, start:stop]
        i, j = np.nonzero(nested)
        if len(i):
            yield i, j + start


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
    table = RuleBounds(rules)
    box = np.asarray(box, dtype=np.int64)
    clip_lo = np.maximum(table.lo, box[:, 0])
    clip_hi = np.minimum(table.hi, box[:, 1])
    inside = np.flatnonzero((clip_lo < clip_hi).all(axis=1))
    redundant = np.zeros(len(inside), dtype=bool)
    for _, j in _nested_pairs(clip_lo[inside], clip_hi[inside]):
        redundant[j] = True
    return [rules[i] for i in inside[~redundant].tolist()]

"""Rule-set container: an ordered packet classifier.

A :class:`RuleSet` is the classifier the paper's Figure 1 shows: a list of
rules, each with a priority, where the highest-priority matching rule is the
classification result.  The linear scan implemented here is the ground truth
against which every decision tree is validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import RuleFormatError
from repro.rules.bounds import RuleBounds
from repro.rules.fields import DIMENSIONS, FIELD_RANGES, Dimension, Range
from repro.rules.packet import Packet
from repro.rules.rule import Rule, find_rule


#: Packets :meth:`RuleSet.match_rows` tests against every rule at once.
_MATCH_CHUNK = 512


@dataclass
class RuleSetStats:
    """Summary statistics of a classifier's geometry.

    Attributes:
        num_rules: number of rules in the classifier.
        wildcard_fraction: per-dimension fraction of rules that are full
            wildcards in that dimension.
        mean_coverage: per-dimension mean coverage fraction.
        distinct_ranges: per-dimension count of distinct (lo, hi) ranges.
    """

    num_rules: int
    wildcard_fraction: Dict[Dimension, float]
    mean_coverage: Dict[Dimension, float]
    distinct_ranges: Dict[Dimension, int]


class RuleSet:
    """An ordered collection of rules forming a packet classifier.

    Rules are stored highest-priority first.  If the rules supplied do not
    carry distinct priorities, priorities are assigned from list order (first
    rule wins), which is the usual convention for ClassBench filter files.
    """

    #: Class-level default so rule sets pickled before the table existed
    #: still load.
    _bounds: Optional[RuleBounds] = None

    def __init__(self, rules: Sequence[Rule], name: str = "", *,
                 reassign_priorities: bool = False) -> None:
        rules = list(rules)
        if not rules:
            raise RuleFormatError("a classifier must contain at least one rule")
        if reassign_priorities or len({r.priority for r in rules}) != len(rules):
            rules = [
                Rule(ranges=r.ranges, priority=len(rules) - i, name=r.name or f"r{i}")
                for i, r in enumerate(rules)
            ]
        self._rules: List[Rule] = sorted(rules, key=lambda r: -r.priority)
        self.name = name

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    def __contains__(self, rule: Rule) -> bool:
        return find_rule(self._rules, rule) >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self._rules == other._rules

    def __repr__(self) -> str:
        return f"RuleSet(name={self.name!r}, num_rules={len(self)})"

    @property
    def rules(self) -> List[Rule]:
        """The rules, highest priority first (copy-free view)."""
        return self._rules

    @property
    def bounds(self) -> RuleBounds:
        """The columnar bounds table: row ``i`` is ``rules[i]``, so row
        order is priority order.  Built on first use, then shared by every
        tree built for this classifier."""
        if self._bounds is None:
            self._bounds = RuleBounds(self._rules)
        return self._bounds

    # ------------------------------------------------------------------ #
    # Classification (ground truth)
    # ------------------------------------------------------------------ #

    def classify(self, packet: Packet) -> Optional[Rule]:
        """Linear-scan classification: the highest-priority matching rule."""
        for rule in self._rules:
            if rule.matches(packet):
                return rule
        return None

    def match_rows(self, values) -> np.ndarray:
        """Linear search over a batch of ``(n, 5)`` header rows: per row, the
        index into :attr:`rules` of the highest-priority matching rule, or
        ``-1``.  The answers :meth:`classify` gives, from a brute-force box
        test over :attr:`bounds`, ``_MATCH_CHUNK`` packets at a time."""
        values = np.asarray(values, dtype=np.int64).reshape(
            -1, len(DIMENSIONS))
        lo, hi = self.bounds.lo, self.bounds.hi
        found = np.empty(len(values), dtype=np.int64)
        for start in range(0, len(values), _MATCH_CHUNK):
            chunk = values[start:start + _MATCH_CHUNK]
            hit = np.ones((len(chunk), len(lo)), dtype=bool)
            for dim in range(len(DIMENSIONS)):
                field = chunk[:, dim, None]
                hit &= (lo[:, dim] <= field) & (field < hi[:, dim])
            first = hit.argmax(axis=1)  # rows are in priority order
            found[start:start + len(chunk)] = np.where(
                hit[np.arange(len(chunk)), first], first, -1)
        return found

    def matching_rules(self, packet: Packet) -> List[Rule]:
        """All rules matching the packet, highest priority first."""
        return [rule for rule in self._rules if rule.matches(packet)]

    # ------------------------------------------------------------------ #
    # Editing (classifier updates, Section 4.2 "Handling classifier updates")
    # ------------------------------------------------------------------ #

    def with_rules_added(self, new_rules: Iterable[Rule]) -> "RuleSet":
        """Return a new classifier with additional rules.

        If every rule (old and new) carries a distinct priority the
        priorities are preserved, so callers can insert high-priority rules;
        otherwise priorities are reassigned from list order with the new
        rules ranked lowest.
        """
        return self.with_changes(added=new_rules)

    def with_rules_removed(self, to_remove: Iterable[Rule]) -> "RuleSet":
        """Return a new classifier with the given rules removed."""
        return self.with_changes(removed=to_remove)

    def with_changes(self, added: Iterable[Rule] = (),
                     removed: Iterable[Rule] = ()) -> "RuleSet":
        """``with_rules_removed(removed).with_rules_added(added)`` as one
        copy: every rule equal to a removed one goes, then the added rules
        join as :meth:`with_rules_added` describes."""
        # Priorities are distinct here, so a removed rule is equal to at
        # most one rule: the one ``find_rule`` finds.
        drop = {find_rule(self._rules, rule) for rule in removed}
        remaining = [rule for index, rule in enumerate(self._rules)
                     if index not in drop]
        if not remaining:
            raise RuleFormatError("cannot remove every rule from a classifier")
        # The constructor keeps the priorities if they are all distinct and
        # reassigns them from list order otherwise.
        return RuleSet(remaining + list(added), name=self.name)

    # ------------------------------------------------------------------ #
    # Sampling and statistics
    # ------------------------------------------------------------------ #

    def sample_matching_packet(self, rule: Rule,
                               rng: Optional[random.Random] = None) -> Packet:
        """Sample a packet uniformly from one rule's hypercube."""
        rng = rng or random.Random()
        values = tuple(rng.randrange(lo, hi) for lo, hi in rule.ranges)
        return Packet.from_values(values)

    def sample_packets(self, count: int, seed: Optional[int] = None,
                       rule_bias: float = 0.9) -> List[Packet]:
        """Sample a packet trace.

        With probability ``rule_bias`` a packet is drawn from a random rule's
        hypercube (so it hits real rules, like ClassBench's trace generator);
        otherwise it is drawn uniformly from the full space.
        """
        rng = random.Random(seed)
        packets = []
        for _ in range(count):
            if rng.random() < rule_bias:
                rule = rng.choice(self._rules)
                packets.append(self.sample_matching_packet(rule, rng))
            else:
                values = tuple(rng.randrange(lo, hi)
                               for lo, hi in (FIELD_RANGES[d] for d in DIMENSIONS))
                packets.append(Packet.from_values(values))
        return packets

    def stats(self) -> RuleSetStats:
        """Compute per-dimension geometry statistics for this classifier."""
        wildcard = {}
        coverage = {}
        distinct = {}
        for dim in DIMENSIONS:
            wc = sum(1 for r in self._rules if r.is_wildcard(dim))
            wildcard[dim] = wc / len(self._rules)
            coverage[dim] = float(
                np.mean([r.coverage_fraction(dim) for r in self._rules])
            )
            distinct[dim] = len({r.range_for(dim) for r in self._rules})
        return RuleSetStats(
            num_rules=len(self._rules),
            wildcard_fraction=wildcard,
            mean_coverage=coverage,
            distinct_ranges=distinct,
        )

    def distinct_ranges(self, dim: Dimension | int) -> List[Range]:
        """Sorted distinct ranges present along one dimension."""
        return sorted({r.range_for(dim) for r in self._rules})

    def subset(self, count: int, seed: Optional[int] = None) -> "RuleSet":
        """Return a random subset of the classifier with ``count`` rules."""
        if count >= len(self._rules):
            return RuleSet(self._rules, name=self.name)
        rng = random.Random(seed)
        chosen = rng.sample(self._rules, count)
        return RuleSet(chosen, name=f"{self.name}_subset{count}")

    def has_default_rule(self) -> bool:
        """Return True if some rule matches every possible packet."""
        full = tuple(FIELD_RANGES[d] for d in DIMENSIONS)
        return any(r.ranges == full for r in self._rules)

    def with_default_rule(self) -> "RuleSet":
        """Return a classifier guaranteed to match every packet."""
        if self.has_default_rule():
            return self
        lowest = min(r.priority for r in self._rules)
        default = Rule.wildcard(priority=lowest - 1, name="default")
        return RuleSet(list(self._rules) + [default], name=self.name)

"""Classifier rule representation and geometric helpers.

A rule is a hypercube in the 5-dimensional header space: one half-open range
per dimension, plus a priority used to break ties when a packet matches more
than one rule.  Higher priority wins, matching the paper's convention
(Figure 1 lists rules from highest to lowest priority).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from repro.exceptions import InvalidRangeError, RuleFormatError
from repro.rules.fields import (
    DIMENSIONS,
    FIELD_BITS,
    FIELD_RANGES,
    Dimension,
    Range,
    Ranges,
    int_to_ip,
    ip_to_int,
    prefix_to_range,
    range_contains,
    range_intersection,
    validate_range,
)
from repro.rules.packet import Packet


@dataclass(frozen=True)
class Rule:
    """A single classifier rule.

    Attributes:
        ranges: one half-open ``(lo, hi)`` range per dimension, in canonical
            order (SrcIP, DstIP, SrcPort, DstPort, Protocol).
        priority: tie-breaking priority; higher values win.
        name: optional human-readable label (e.g. its line in a rule file).
    """

    ranges: Ranges
    priority: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.ranges) != len(DIMENSIONS):
            raise RuleFormatError(
                f"rule must have {len(DIMENSIONS)} ranges, got {len(self.ranges)}"
            )
        normalized = tuple(
            validate_range(dim, lo, hi)
            for dim, (lo, hi) in zip(DIMENSIONS, self.ranges)
        )
        object.__setattr__(self, "ranges", normalized)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_fields(
        cls,
        src_ip: Range | None = None,
        dst_ip: Range | None = None,
        src_port: Range | None = None,
        dst_port: Range | None = None,
        protocol: Range | None = None,
        priority: int = 0,
        name: str = "",
    ) -> "Rule":
        """Build a rule from per-field ranges; ``None`` means wildcard."""
        defaults = [FIELD_RANGES[d] for d in DIMENSIONS]
        explicit = [src_ip, dst_ip, src_port, dst_port, protocol]
        ranges = tuple(
            rng if rng is not None else default
            for rng, default in zip(explicit, defaults)
        )
        return cls(ranges=ranges, priority=priority, name=name)

    @classmethod
    def from_prefixes(
        cls,
        src_ip: str = "0.0.0.0/0",
        dst_ip: str = "0.0.0.0/0",
        src_port: Range | None = None,
        dst_port: Range | None = None,
        protocol: Optional[int] = None,
        priority: int = 0,
        name: str = "",
    ) -> "Rule":
        """Build a rule from CIDR prefixes, port ranges and a protocol number."""
        sip = parse_prefix(src_ip, bits=32)
        dip = parse_prefix(dst_ip, bits=32)
        proto: Range | None
        if protocol is None:
            proto = None
        else:
            proto = (protocol, protocol + 1)
        return cls.from_fields(
            src_ip=sip,
            dst_ip=dip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=proto,
            priority=priority,
            name=name,
        )

    @classmethod
    def wildcard(cls, priority: int = 0, name: str = "default") -> "Rule":
        """The default match-everything rule (last resort in a classifier)."""
        return cls(ranges=tuple(FIELD_RANGES[d] for d in DIMENSIONS),
                   priority=priority, name=name)

    # ------------------------------------------------------------------ #
    # Matching and geometry
    # ------------------------------------------------------------------ #

    def matches(self, packet: Packet) -> bool:
        """Return True if the packet's header falls inside every range."""
        for value, (lo, hi) in zip(packet.as_tuple(), self.ranges):
            if not lo <= value < hi:
                return False
        return True

    def range_for(self, dim: Dimension | int) -> Range:
        """Return this rule's range for one dimension."""
        return self.ranges[int(dim)]

    def intersects(self, ranges: Sequence[Range]) -> bool:
        """Return True if the rule's hypercube intersects the given box."""
        # ``range_overlap`` in every dimension, spelled without the calls.
        for (lo, hi), (other_lo, other_hi) in zip(self.ranges, ranges):
            if lo >= other_hi or other_lo >= hi:
                return False
        return True

    def is_covered_by(self, ranges: Sequence[Range]) -> bool:
        """Return True if the rule's hypercube lies entirely inside the box."""
        for mine, other in zip(self.ranges, ranges):
            if not range_contains(other, mine):
                return False
        return True

    def covers(self, other: "Rule") -> bool:
        """Return True if this rule's hypercube fully contains ``other``'s."""
        return other.is_covered_by(self.ranges)

    def covers_within(self, other: "Rule", box: Sequence[Range]) -> bool:
        """Return True if, clipped to ``box``, this rule's hypercube contains
        ``other``'s (both are assumed to reach into the box)."""
        # max(lo, box_lo) <= max(other_lo, box_lo) and the mirror image for
        # the upper bounds, spelled without the calls.
        for (lo, hi), (other_lo, other_hi), (box_lo, box_hi) in zip(
                self.ranges, other.ranges, box):
            if (lo > other_lo and lo > box_lo) \
                    or (hi < other_hi and hi < box_hi):
                return False
        return True

    def clip_to(self, ranges: Sequence[Range]) -> Optional["Rule"]:
        """Return a copy of this rule clipped to a box, or None if disjoint."""
        clipped = []
        for mine, other in zip(self.ranges, ranges):
            inter = range_intersection(mine, other)
            if inter is None:
                return None
            clipped.append(inter)
        return Rule(ranges=tuple(clipped), priority=self.priority, name=self.name)

    def span(self, dim: Dimension | int) -> int:
        """Number of values this rule covers along one dimension."""
        lo, hi = self.ranges[int(dim)]
        return hi - lo

    def coverage_fraction(self, dim: Dimension | int) -> float:
        """Fraction of the full field range this rule covers along ``dim``.

        EffiCuts calls a rule "large" in a dimension when this fraction
        exceeds a threshold (0.5 in the original paper).
        """
        dim = Dimension(int(dim))
        return self.span(dim) / dim.size

    def is_wildcard(self, dim: Dimension | int) -> bool:
        """Return True if the rule covers the whole field along ``dim``."""
        return self.ranges[int(dim)] == FIELD_RANGES[Dimension(int(dim))]

    def num_wildcard_dims(self) -> int:
        """Number of dimensions in which the rule is a full wildcard."""
        return sum(1 for d in DIMENSIONS if self.is_wildcard(d))

    def overlaps(self, other: "Rule") -> bool:
        """Return True if the two rules' hypercubes intersect."""
        return self.intersects(other.ranges)

    # ------------------------------------------------------------------ #
    # Formatting
    # ------------------------------------------------------------------ #

    def to_classbench(self) -> str:
        """Format as a ClassBench filter-file line (without priority)."""
        sip = format_prefix(self.ranges[Dimension.SRC_IP], bits=32)
        dip = format_prefix(self.ranges[Dimension.DST_IP], bits=32)
        sp_lo, sp_hi = self.ranges[Dimension.SRC_PORT]
        dp_lo, dp_hi = self.ranges[Dimension.DST_PORT]
        pr_lo, pr_hi = self.ranges[Dimension.PROTOCOL]
        if pr_hi - pr_lo == 1:
            proto = f"0x{pr_lo:02x}/0xff"
        elif (pr_lo, pr_hi) == FIELD_RANGES[Dimension.PROTOCOL]:
            proto = "0x00/0x00"
        else:
            # Non-prefix protocol ranges are rare; emit lo with a zero mask.
            proto = "0x00/0x00"
        return (
            f"@{sip}\t{dip}\t{sp_lo} : {sp_hi - 1}\t{dp_lo} : {dp_hi - 1}\t{proto}"
        )

    def pretty(self) -> str:
        """Human readable multi-field description."""
        parts = []
        for dim in DIMENSIONS:
            lo, hi = self.ranges[dim]
            if self.is_wildcard(dim):
                parts.append(f"{dim.name}=*")
            elif dim in (Dimension.SRC_IP, Dimension.DST_IP):
                parts.append(f"{dim.name}={int_to_ip(lo)}-{int_to_ip(hi - 1)}")
            else:
                parts.append(f"{dim.name}=[{lo},{hi})")
        return f"Rule(prio={self.priority}, " + ", ".join(parts) + ")"


def parse_prefix(text: str, bits: int = 32) -> Range:
    """Parse ``a.b.c.d/len`` (or a bare address) into a half-open range."""
    text = text.strip()
    if "/" in text:
        addr, _, plen_text = text.partition("/")
        prefix_len = int(plen_text)
    else:
        addr, prefix_len = text, bits
    value = ip_to_int(addr)
    return prefix_to_range(value, prefix_len, bits=bits)


def format_prefix(rng: Range, bits: int = 32) -> str:
    """Format a half-open range as the smallest covering CIDR prefix."""
    lo, hi = rng
    span = hi - lo
    if span & (span - 1) == 0 and lo % span == 0:
        prefix_len = bits - (span.bit_length() - 1)
    else:
        # Not prefix-expressible; fall back to the covering /0 block.
        prefix_len = 0
        lo = 0
    return f"{int_to_ip(lo)}/{prefix_len}"


def highest_priority(rules: Iterable[Rule]) -> Optional[Rule]:
    """Return the highest-priority rule in an iterable, or None if empty."""
    best: Optional[Rule] = None
    for rule in rules:
        if best is None or rule.priority > best.priority:
            best = rule
    return best


def _rank(rule: Rule) -> int:
    return -rule.priority


def rank_above(rules: Sequence[Rule], priority: int) -> int:
    """How many of ``rules``, highest priority first, have a priority above
    ``priority``: where that priority's run of rules starts."""
    return bisect_left(rules, -priority, key=_rank)


def find_rule(rules: Sequence[Rule], rule: Rule) -> int:
    """Index of the first rule equal to ``rule`` in ``rules``, highest
    priority first — ``rules.index(rule)``, looking only at the run of
    rules of its priority, the only ones that can equal it.

    When none is equal, ``~position`` (a negative number) for the position
    just past that run: where a stable sort by priority places ``rule``
    once appended.
    """
    index = bisect_left(rules, -rule.priority, key=_rank)
    while index < len(rules) and rules[index].priority == rule.priority:
        if rules[index] == rule:
            return index
        index += 1
    return ~index

"""Correctness validation of decision trees against linear search.

Decision trees for packet classification must be *exact*: for every possible
packet, the tree returns the same highest-priority rule as a linear scan of
the classifier.  These helpers check that property over sampled packets and
over adversarial corner packets (rule boundaries), which is where off-by-one
errors in range handling show up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.rules.fields import DIMENSIONS, FIELD_RANGES
from repro.rules.packet import Packet
from repro.rules.ruleset import RuleSet
from repro.tree.lookup import TreeClassifier
from repro.tree.tree import DecisionTree


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a classifier against ground truth."""

    num_packets: int
    num_mismatches: int
    mismatching_packets: List[Packet]

    @property
    def is_correct(self) -> bool:
        return self.num_mismatches == 0


_FIELD_ENDS = tuple(FIELD_RANGES[d][1] for d in DIMENSIONS)


def corner_packets(ruleset: RuleSet, limit: Optional[int] = None) -> List[Packet]:
    """Packets at rule-range corners: lo, hi-1 and hi of every rule's box.

    These are the values where half-open/closed confusion, rounding in equal
    cuts, or redundant-rule pruning bugs change the classification result.
    The third corner takes ``hi`` (the first value past the rule) on every
    field where ``hi`` is still inside the field, and ``hi-1`` elsewhere: a
    classifier that treats ``hi`` as inclusive matches the rule there.
    """
    packets: List[Packet] = []
    for rule in ruleset:
        lows = tuple(lo for lo, _ in rule.ranges)
        highs = tuple(hi - 1 for _, hi in rule.ranges)
        past = tuple(min(hi, end - 1)
                     for (_, hi), end in zip(rule.ranges, _FIELD_ENDS))
        packets.append(Packet.from_values(lows))
        packets.append(Packet.from_values(highs))
        packets.append(Packet.from_values(past))
        if limit is not None and len(packets) >= limit:
            break
    return packets[:limit] if limit is not None else packets


def validate_classifier(
    classifier: TreeClassifier,
    packets: Optional[Sequence[Packet]] = None,
    num_random_packets: int = 200,
    include_corners: bool = True,
    seed: int = 0,
) -> ValidationReport:
    """Validate a (multi-)tree classifier against linear search.

    The classifier is compiled once and the whole sample classified in one
    engine walk (bypassing any attached flow cache); a tree the engine
    cannot compile raises :class:`~repro.engine.layout.CompileError`.
    """
    from repro.engine.layout import packets_to_array

    ruleset = classifier.ruleset
    sample: List[Packet] = list(packets) if packets is not None else []
    if not sample:
        sample.extend(ruleset.sample_packets(num_random_packets, seed=seed))
        if include_corners:
            sample.extend(corner_packets(ruleset, limit=3 * len(ruleset)))
    compiled = classifier.compile()
    values = packets_to_array(sample)
    found = compiled.match_indices(values).tolist()
    rows = ruleset.match_rows(values).tolist()
    mismatching = []
    for packet, index, row in zip(sample, found, rows):
        expected_prio = ruleset[row].priority if row >= 0 else None
        actual_prio = compiled.rules[index].priority if index >= 0 else None
        if expected_prio != actual_prio:
            mismatching.append(packet)
    return ValidationReport(
        num_packets=len(sample),
        num_mismatches=len(mismatching),
        mismatching_packets=mismatching,
    )


def validate_tree(
    tree: DecisionTree,
    packets: Optional[Sequence[Packet]] = None,
    num_random_packets: int = 200,
    seed: int = 0,
) -> ValidationReport:
    """Validate a single tree (no partitioning) against linear search."""
    classifier = TreeClassifier(tree.ruleset, [tree])
    return validate_classifier(
        classifier, packets=packets, num_random_packets=num_random_packets, seed=seed
    )


def assert_tree_invariants(tree: DecisionTree) -> None:
    """Check structural invariants of a completed tree.

    * Every internal node's children tile (cuts) or partition (partitions)
      its parent's rules: each parent rule intersecting the parent box
      appears in at least one child.
    * Child depth is parent depth + 1.
    * Leaves respect the leaf threshold unless truncated.

    Raises AssertionError on violation; used by tests and property checks.
    """
    for node in tree.internal_nodes():
        assert node.children, f"internal node {node.node_id} has no children"
        for child in node.children:
            assert child.depth == node.depth + 1, "child depth mismatch"
        if node.is_partition_node:
            child_rule_total = sum(child.num_rules for child in node.children)
            assert child_rule_total == node.num_rules, (
                "partition must distribute every parent rule exactly once"
            )
        else:
            for rule in node.rules:
                if any(rule in child.rules for child in node.children):
                    continue
                intersecting = [
                    child for child in node.children if rule.intersects(child.ranges)
                ]
                assert intersecting, (
                    "rule intersects the parent box but no child box"
                )
                assert all(
                    _is_pruned_redundant(rule, child) for child in intersecting
                ), "cut lost a rule that is not redundant in some child"
    for leaf in tree.leaves():
        if not leaf.forced_leaf:
            assert leaf.num_rules <= tree.leaf_threshold, (
                f"non-truncated leaf {leaf.node_id} exceeds the leaf threshold"
            )


def _is_pruned_redundant(rule, child) -> bool:
    """True if ``rule`` intersects the child box but was legally pruned."""
    clipped = rule.clip_to(child.ranges)
    if clipped is None:
        return True
    for other in child.rules:
        if other.priority > rule.priority:
            other_clipped = other.clip_to(child.ranges)
            if other_clipped is not None and other_clipped.covers(clipped):
                return True
    return False

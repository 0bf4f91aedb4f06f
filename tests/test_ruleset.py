"""Tests for repro.rules.ruleset: ordering, classification, edits, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classbench import generate_classifier, seed_names
from repro.exceptions import RuleFormatError
from repro.rules import DIMENSIONS, FIELD_RANGES, Dimension, Packet, Rule, \
    RuleSet


class TestOrderingAndPriorities:
    def test_rules_sorted_by_priority(self, tiny_ruleset):
        priorities = [r.priority for r in tiny_ruleset]
        assert priorities == sorted(priorities, reverse=True)

    def test_duplicate_priorities_reassigned_from_order(self):
        first = Rule.from_fields(protocol=(6, 7), priority=0, name="tcp")
        second = Rule.wildcard(priority=0, name="default")
        ruleset = RuleSet([first, second])
        assert ruleset[0].ranges == first.ranges
        assert ruleset[0].priority > ruleset[1].priority

    def test_empty_ruleset_rejected(self):
        with pytest.raises(RuleFormatError):
            RuleSet([])


_EDGES = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2)),
                  min_size=len(DIMENSIONS), max_size=len(DIMENSIONS))


@given(family=st.sampled_from(sorted(seed_names())),
       num_rules=st.integers(min_value=1, max_value=80),
       seed=st.integers(min_value=0, max_value=10 ** 4),
       edges=st.lists(_EDGES, min_size=1, max_size=60),
       copies=st.sampled_from([1, 9, 20]))
@settings(max_examples=80, deadline=None)
def test_match_rows_equals_classify_at_every_rule_edge(
        family, num_rules, seed, edges, copies):
    """The batched box test names the rule the scalar scan names, on packets
    whose every field sits at some rule's ``lo``, ``hi - 1`` or ``hi`` (the
    first value past it, where the field still has one), in batches on
    both sides of the 512-packet chunk."""
    ruleset = generate_classifier(family, num_rules, seed=seed)
    packets = []
    for fields in edges:
        values = []
        for dim, (pick, edge) in zip(DIMENSIONS, fields):
            lo, hi = ruleset[pick % len(ruleset)].ranges[dim]
            values.append(min((lo, hi - 1, hi)[edge], FIELD_RANGES[dim][1] - 1))
        packets.append(Packet.from_values(tuple(values)))
    packets = (packets * copies)[:len(packets) * copies]
    rows = ruleset.match_rows([p.as_tuple() for p in packets])
    assert rows.dtype == np.int64 and rows.shape == (len(packets),)
    for packet, row in zip(packets, rows.tolist()):
        expected = ruleset.classify(packet)
        assert (ruleset[row] if row >= 0 else None) is expected


class TestClassification:
    def test_match_rows_of_no_packets(self, tiny_ruleset):
        rows = tiny_ruleset.match_rows(np.empty((0, 5), dtype=np.int64))
        assert rows.shape == (0,)

    def test_highest_priority_rule_wins(self, tiny_ruleset):
        # This packet matches both the src/dst rule and the default rule.
        packet = Packet.from_strings("10.0.0.0", "10.0.0.1", 0, 0, 6)
        match = tiny_ruleset.classify(packet)
        assert match is not None and match.name == "r0"

    def test_default_rule_catches_everything(self, tiny_ruleset):
        packet = Packet.from_strings("1.2.3.4", "5.6.7.8", 9999, 9999, 50)
        match = tiny_ruleset.classify(packet)
        assert match is not None and match.name == "default"

    def test_matching_rules_sorted(self, tiny_ruleset):
        packet = Packet.from_strings("10.0.0.0", "10.0.0.1", 100, 100, 6)
        matches = tiny_ruleset.matching_rules(packet)
        assert len(matches) >= 2
        assert matches[0].priority >= matches[-1].priority


class TestEditing:
    def test_with_rules_added(self, tiny_ruleset):
        new_rule = Rule.from_fields(dst_port=(443, 444))
        bigger = tiny_ruleset.with_rules_added([new_rule])
        assert len(bigger) == len(tiny_ruleset) + 1
        # Original is untouched.
        assert len(tiny_ruleset) == 4

    def test_with_rules_removed(self, tiny_ruleset):
        to_remove = tiny_ruleset[1]
        smaller = tiny_ruleset.with_rules_removed([to_remove])
        assert len(smaller) == len(tiny_ruleset) - 1
        assert to_remove not in smaller

    def test_cannot_remove_all_rules(self, tiny_ruleset):
        with pytest.raises(RuleFormatError):
            tiny_ruleset.with_rules_removed(list(tiny_ruleset))


class TestSamplingAndStats:
    def test_sampled_packets_respect_bias(self, small_acl_ruleset):
        packets = small_acl_ruleset.sample_packets(50, seed=1, rule_bias=1.0)
        assert len(packets) == 50
        # Every packet drawn from a rule's box matches at least that rule.
        assert all(small_acl_ruleset.classify(p) is not None for p in packets)

    def test_sampling_is_deterministic(self, small_acl_ruleset):
        a = small_acl_ruleset.sample_packets(20, seed=5)
        b = small_acl_ruleset.sample_packets(20, seed=5)
        assert a == b

    def test_stats_fields(self, small_acl_ruleset):
        stats = small_acl_ruleset.stats()
        assert stats.num_rules == len(small_acl_ruleset)
        for dim in Dimension:
            assert 0.0 <= stats.wildcard_fraction[dim] <= 1.0
            assert 0.0 < stats.mean_coverage[dim] <= 1.0
            assert stats.distinct_ranges[dim] >= 1

    def test_subset(self, small_acl_ruleset):
        subset = small_acl_ruleset.subset(10, seed=0)
        assert len(subset) == 10
        assert all(rule in small_acl_ruleset.rules for rule in subset)

    def test_with_default_rule_idempotent(self, small_acl_ruleset):
        assert small_acl_ruleset.has_default_rule()
        assert small_acl_ruleset.with_default_rule() is small_acl_ruleset

    def test_with_default_rule_added_when_missing(self):
        ruleset = RuleSet([Rule.from_fields(protocol=(6, 7))])
        assert not ruleset.has_default_rule()
        completed = ruleset.with_default_rule()
        assert completed.has_default_rule()
        assert len(completed) == 2

"""Rules, packets, and classifier containers."""

from repro.rules.fields import (
    DIMENSIONS,
    FIELD_BITS,
    FIELD_RANGES,
    FULL_SPACE,
    NUM_DIMENSIONS,
    Dimension,
    Range,
    Ranges,
    int_to_ip,
    ip_to_int,
    prefix_to_range,
    range_contains,
    range_intersection,
    range_overlap,
    range_to_prefix,
    validate_range,
)
from repro.rules.bounds import RuleBounds
from repro.rules.packet import Packet
from repro.rules.rule import Rule, format_prefix, highest_priority, parse_prefix
from repro.rules.ruleset import RuleSet, RuleSetStats
from repro.rules import io

__all__ = [
    "DIMENSIONS",
    "FIELD_BITS",
    "FIELD_RANGES",
    "FULL_SPACE",
    "NUM_DIMENSIONS",
    "Dimension",
    "Range",
    "Ranges",
    "int_to_ip",
    "ip_to_int",
    "prefix_to_range",
    "range_contains",
    "range_intersection",
    "range_overlap",
    "range_to_prefix",
    "validate_range",
    "Packet",
    "Rule",
    "RuleBounds",
    "RuleSet",
    "RuleSetStats",
    "format_prefix",
    "parse_prefix",
    "highest_priority",
    "io",
]

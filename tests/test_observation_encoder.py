"""``ObservationEncoder.encode`` against the layout it documents.

The encoder writes its vector in one pass (a shift and mask for the range
bits, one-hot entries by index, the masks by slice).  The reference below
builds the same vector the long way, as the concatenation of
:func:`binary_encode` and :func:`one_hot` blocks, and the two must agree
byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.neurocuts import (
    NeuroCutsActionSpace,
    NeuroCutsConfig,
    ObservationEncoder,
    binary_encode,
    one_hot,
)
from repro.neurocuts.observation import NUM_EFFICUTS_CATEGORIES
from repro.rules import DIMENSIONS, FULL_SPACE
from repro.rules.fields import FIELD_BITS
from repro.tree import Node
from repro.tree.actions import PARTITION_LEVELS

ENCODERS = {mode: ObservationEncoder(NeuroCutsActionSpace(
    NeuroCutsConfig(partition_mode=mode))) for mode in
    ("none", "simple", "efficuts")}
LEVEL_PAIRS = list(itertools.product(range(len(PARTITION_LEVELS)), repeat=2))
CATEGORIES = [None, *range(NUM_EFFICUTS_CATEGORIES)]


def reference_encode(node, masks) -> np.ndarray:
    parts = []
    for dim in DIMENSIONS:
        lo, hi = node.range_for(dim)
        parts += [binary_encode(lo, FIELD_BITS[dim]),
                  binary_encode(hi - 1, FIELD_BITS[dim])]
    for dim in DIMENSIONS:
        lo_level, hi_level = node.partition_state[int(dim)]
        parts += [one_hot(lo_level, len(PARTITION_LEVELS)),
                  one_hot(hi_level, len(PARTITION_LEVELS))]
    category = node.efficuts_category
    parts.append(one_hot(0 if category is None else category,
                         NUM_EFFICUTS_CATEGORIES))
    parts += [np.asarray(mask, dtype=np.float64) for mask in masks]
    return np.concatenate(parts)


def assert_encodes_like_reference(encoder, node, masks):
    got = encoder.encode(node, masks)
    assert got.dtype == np.float64 and got.shape == (encoder.size,)
    assert got.tobytes() == reference_encode(node, masks).tobytes()


def field_range(bits: int):
    """A non-empty range whose encoded bounds (``lo``, ``hi - 1``) are
    often ``0`` or ``2^bits - 1``."""
    top = (1 << bits) - 1
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return st.tuples(value, value).map(
        lambda pair: (min(pair), max(pair) + 1))


@st.composite
def encoded_inputs(draw):
    encoder = ENCODERS[draw(st.sampled_from(sorted(ENCODERS)))]
    node = Node(
        ranges=tuple(draw(field_range(FIELD_BITS[dim])) for dim in DIMENSIONS),
        rules=[],
        depth=draw(st.integers(0, 20)),
        partition_state=tuple(draw(st.sampled_from(LEVEL_PAIRS))
                              for _ in DIMENSIONS),
        efficuts_category=draw(st.sampled_from(CATEGORIES)),
    )
    masks = tuple(np.array(draw(st.lists(st.booleans(), min_size=size,
                                         max_size=size)), dtype=bool)
                  for size in encoder.action_space.space.sizes)
    return encoder, node, masks


@settings(max_examples=300, deadline=None)
@given(encoded_inputs())
def test_encode_equals_the_concatenated_blocks(inputs):
    assert_encodes_like_reference(*inputs)


@pytest.mark.parametrize("mode", sorted(ENCODERS))
def test_every_level_pair_category_and_extreme_bound(mode):
    encoder = ENCODERS[mode]
    sizes = encoder.action_space.space.sizes
    rng = np.random.default_rng(0)
    extremes = [tuple((0, 1) if low else ((1 << FIELD_BITS[dim]) - 1,
                                          1 << FIELD_BITS[dim])
                      for dim in DIMENSIONS) for low in (True, False)]
    for ranges in (FULL_SPACE, *extremes):
        for pair, category in itertools.zip_longest(
                LEVEL_PAIRS, CATEGORIES, fillvalue=None):
            node = Node(ranges=ranges, rules=[],
                        partition_state=(pair or (0, 0),) * len(DIMENSIONS),
                        efficuts_category=category)
            masks = tuple(rng.random(size) < 0.5 for size in sizes)
            assert_encodes_like_reference(encoder, node, masks)


def test_default_masks_are_the_action_spaces(small_acl_ruleset):
    encoder = ENCODERS["simple"]
    node = Node(ranges=FULL_SPACE, rules=list(small_acl_ruleset.rules))
    masks = encoder.action_space.masks_for_node(node)
    assert encoder.encode(node).tobytes() == \
        reference_encode(node, masks).tobytes()


def test_bounds_outside_the_field_are_rejected():
    encoder = ENCODERS["none"]
    masks = tuple(np.ones(size, dtype=bool)
                  for size in encoder.action_space.space.sizes)
    too_wide = list(FULL_SPACE)
    too_wide[4] = (0, (1 << FIELD_BITS[DIMENSIONS[4]]) + 1)
    with pytest.raises(ValueError):
        encoder.encode(Node(ranges=tuple(too_wide), rules=[]), masks)

"""NeuroCuts observation encoding (Appendix A).

The agent never sees the rest of the tree — only a fixed-length encoding of
the node it must act on:

* for every dimension, the node's range boundaries as binary strings
  (``BinaryString(range_min) + BinaryString(range_max)``);
* for every dimension, one-hot encodings of the partition state
  (``OneHot(partition_min) + OneHot(partition_max)`` over the discrete
  coverage levels);
* a one-hot encoding of the node's EffiCuts partition category; and
* the action mask, flattened.

The exact bit count differs slightly from the paper's 278 (the paper packs
the same information with a shared mask layout); the encoder reports its
size via :attr:`ObservationEncoder.size` and everything downstream adapts.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.rules.fields import DIMENSIONS, FIELD_BITS, Dimension
from repro.rl.spaces import Box
from repro.tree.actions import PARTITION_LEVELS
from repro.tree.node import Node
from repro.neurocuts.action_space import NeuroCutsActionSpace

#: Number of EffiCuts categories (one per subset of the five dimensions).
NUM_EFFICUTS_CATEGORIES = 1 << len(DIMENSIONS)


def binary_encode(value: int, bits: int) -> np.ndarray:
    """Encode an unsigned integer as a most-significant-bit-first bit vector."""
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"value {value} does not fit in {bits} bits")
    return np.array(
        [(value >> shift) & 1 for shift in range(bits - 1, -1, -1)],
        dtype=np.float64,
    )


def one_hot(index: int, size: int) -> np.ndarray:
    """Standard one-hot vector."""
    if not 0 <= index < size:
        raise ValueError(f"one-hot index {index} out of range [0, {size})")
    vec = np.zeros(size, dtype=np.float64)
    vec[index] = 1.0
    return vec


class ObservationEncoder:
    """Encodes a tree node into the fixed-length NeuroCuts observation.

    :meth:`encode` lays out exactly the concatenation of
    :func:`binary_encode` / :func:`one_hot` blocks described above, but
    writes it into one preallocated vector: all range bits with one shift
    and mask, then the one-hot entries by index and the masks by slice.
    """

    def __init__(self, action_space: NeuroCutsActionSpace) -> None:
        self.action_space = action_space
        self._range_bits = sum(2 * FIELD_BITS[d] for d in DIMENSIONS)
        self._partition_bits = 2 * len(PARTITION_LEVELS) * len(DIMENSIONS)
        self._efficuts_bits = NUM_EFFICUTS_CATEGORIES
        self._mask_bits = sum(action_space.space.sizes)
        self.size = (
            self._range_bits
            + self._partition_bits
            + self._efficuts_bits
            + self._mask_bits
        )
        self.space = Box(low=0.0, high=1.0, shape=(self.size,))
        # Range bit k is bit ``_shifts[k]`` (most significant first) of
        # bound ``_bound_of[k]``, the bounds in order lo_0, hi_0 - 1, lo_1, ..
        widths = [FIELD_BITS[d] for d in DIMENSIONS for _ in range(2)]
        self._bound_of = np.repeat(np.arange(len(widths)), widths)
        self._shifts = np.concatenate(
            [np.arange(width - 1, -1, -1) for width in widths])
        self._limits = [1 << FIELD_BITS[d] for d in DIMENSIONS]
        self._category_at = self._range_bits + self._partition_bits
        self._mask_at = self._category_at + self._efficuts_bits

    def encode(self, node: Node,
               masks: Tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Encode one node (and the masks in force at it) as a flat vector."""
        if masks is None:
            masks = self.action_space.masks_for_node(node)
        obs = np.zeros(self.size)
        # Range boundaries per dimension.  The range maximum is encoded as
        # hi - 1 so the full field range still fits in the field's bit width.
        bounds = []
        for (lo, hi), limit in zip(node.ranges, self._limits):
            if not (0 <= lo < limit and 0 < hi <= limit):
                raise ValueError(f"range [{lo}, {hi}) does not fit in "
                                 f"{limit.bit_length() - 1} bits")
            bounds += (lo, hi - 1)
        obs[:self._range_bits] = \
            (np.array(bounds)[self._bound_of] >> self._shifts) & 1
        # Partition state per dimension, then the EffiCuts category
        # (category 0 also covers "no partition applied"), as one-hots.
        levels = len(PARTITION_LEVELS)
        hot = []
        start = self._range_bits
        for lo_level, hi_level in node.partition_state:
            hot += (start + lo_level, start + levels + hi_level)
            start += 2 * levels
        hot.append(self._category_at + (node.efficuts_category or 0))
        obs[hot] = 1.0
        # Flattened action mask.
        dim_mask, act_mask = masks
        split = self._mask_at + len(dim_mask)
        obs[self._mask_at:split] = dim_mask
        obs[split:] = act_mask
        return obs

    def describe(self) -> str:
        """Breakdown of the observation layout."""
        return (
            f"Box(low=0, high=1, shape=({self.size},)) = "
            f"{self._range_bits} range bits + {self._partition_bits} partition bits "
            f"+ {self._efficuts_bits} EffiCuts-category bits + "
            f"{self._mask_bits} action-mask bits"
        )

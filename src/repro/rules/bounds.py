"""Columnar rule geometry: the bounds table.

Tree construction asks the same geometric questions of many rules at once —
which rules reach into a child box, which are shadowed there by a
higher-priority rule — and answers them with array operations over this
table instead of rule-by-rule Python.  A :class:`RuleBounds` holds one row
per rule, in the order the rules were given: ``lo`` and ``hi`` are
``(n, 5) int64`` arrays of the half-open range bounds, one column per
dimension.  A :class:`~repro.rules.ruleset.RuleSet` owns one such table
(``RuleSet.bounds``) whose row order is the classifier's priority order, so
"row *i* outranks row *j*" is ``i < j``; tree nodes refer to their rules as
row indices into it.

The arrays are built on first use and are read-only: every node of every
tree built for a classifier shares them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.rules.fields import DIMENSIONS
from repro.rules.rule import Rule


class RuleBounds:
    """``lo`` / ``hi`` bounds of a rule sequence as two ``(n, 5)`` arrays."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        #: The rules the rows describe; a private copy, so the table cannot
        #: drift from a list its creator keeps editing.
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None
        self._key: Optional[np.ndarray] = None
        self._index: Optional[Dict[Rule, int]] = None

    def __len__(self) -> int:
        return len(self.rules)

    def __getstate__(self) -> dict:
        # The arrays and the index are derived; rebuild them after a pickle
        # round trip rather than shipping them with every tree.
        return {"rules": self.rules}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["rules"])

    def _build(self) -> None:
        bounds = np.array([rule.ranges for rule in self.rules],
                          dtype=np.int64).reshape(len(self.rules),
                                                  len(DIMENSIONS), 2)
        self._lo = np.ascontiguousarray(bounds[:, :, 0])
        self._hi = np.ascontiguousarray(bounds[:, :, 1])
        self._key = np.concatenate([self._lo, -self._hi], axis=1).T.copy()
        for array in (self._lo, self._hi, self._key):
            array.setflags(write=False)

    @property
    def lo(self) -> np.ndarray:
        """Inclusive lower bounds, ``(n, 5) int64``, read-only."""
        if self._lo is None:
            self._build()
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """Exclusive upper bounds, ``(n, 5) int64``, read-only."""
        if self._hi is None:
            self._build()
        return self._hi

    @property
    def key(self) -> np.ndarray:
        """``(10, n) int64``, read-only, one column per rule: its lower
        bounds, then its upper bounds negated.  In this form every bound is
        a lower bound, so "rule ``i``'s box contains rule ``j``'s" is
        ``key[:, i] <= key[:, j]`` in every row, and clipping to a box is
        one ``np.maximum``.  Bound-major, so comparing many rules bound by
        bound walks whole rows."""
        if self._key is None:
            self._build()
        return self._key

    def rows_of(self, rules: Sequence[Rule]) -> Optional[np.ndarray]:
        """Row of each given rule, or ``None`` if any is not in the table."""
        if self._index is None:
            self._index = {rule: row for row, rule in enumerate(self.rules)}
        try:
            return np.fromiter((self._index[rule] for rule in rules),
                               dtype=np.intp, count=len(rules))
        except KeyError:
            return None

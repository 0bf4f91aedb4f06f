"""Native traversal kernels behind the :class:`~repro.engine.layout.FlatTree` layout.

The NumPy engine walks a whole forest *level-synchronously*: one
Python-level iteration per tree level for every ``(tree, packet)`` lane at
once.  That amortises the interpreter away, but the hot loop still pays
NumPy dispatch roughly ``depth + max_leaf_span`` times per batch.  The
kernels here walk the **same rows** per packet and per tree instead —
descend to the leaf, scan its rule span, first hit wins — compiled to native
code with numba and parallelised over the batch, so a lookup costs a handful
of machine instructions per level with zero Python in the loop.  They read
each tree's :meth:`~repro.engine.layout.FlatTree.kernel_tables` repack,
never the forest's columns, which keeps them an independent reference for
the fused walk.

Backends are selected by name through the registry:

* ``"numpy"`` — the level-synchronous forest walk; always available.
* ``"numba"`` — the jitted kernels; requires the optional ``numba``
  dependency (``pip install repro[native]``).  Requesting it without numba
  raises :class:`~repro.exceptions.EngineBackendError`.
* ``"auto"`` — ``"numba"`` when importable, else ``"numpy"`` with a
  one-time :class:`RuntimeWarning` so offline installs and the 1-CPU CI
  container keep working unchanged.

The kernel bodies are written in nopython-compatible Python and jitted at
import when numba is present.  When it is absent they remain callable as
plain Python over the same unstructured int64 views — orders of magnitude
slower, but byte-identical in behaviour — which is what lets the
differential tests exercise the kernel *logic* everywhere, not just on
machines with numba installed.

Exactness contract: for any batch, every backend returns byte-identical
match indices.  Both the per-tree order (leaf spans are sorted highest
priority first; the first containing row wins) and the cross-tree merge
(strictly greater priority wins, earlier tree wins ties) replicate the
NumPy engine exactly.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.exceptions import EngineBackendError
from repro.engine.layout import (
    COL_BASE,
    COL_CHILD_START,
    COL_DIM,
    COL_KIND,
    COL_LO,
    COL_POINT,
    COL_REM,
    COL_RULE_END,
    COL_RULE_START,
    KIND_CUT,
    KIND_LEAF,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.layout import FlatTree

#: Backends accepted everywhere a backend can be named (``CompiledClassifier``,
#: ``EngineSlot``, ``repro engine-bench --engine``, ...).
ENGINE_BACKENDS = ("numpy", "numba", "auto")

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the repo's own CI default
    _numba = None
    NUMBA_AVAILABLE = False

#: Sentinel leaf/row meaning the recorded depth was overrun (corrupt tree).
_OVERRUN = -2

_warned_auto_fallback = False


def available_backends() -> Tuple[str, ...]:
    """The concrete backends this installation can actually run."""
    return ("numpy", "numba") if NUMBA_AVAILABLE else ("numpy",)


def resolve_backend(backend: str) -> str:
    """Resolve a requested backend name to a concrete one.

    ``"auto"`` prefers ``"numba"`` and falls back to ``"numpy"`` with a
    one-time :class:`RuntimeWarning` when numba is not importable; asking
    for ``"numba"`` explicitly without numba raises
    :class:`~repro.exceptions.EngineBackendError` instead, because an
    explicit request silently served by a 20x-slower engine is a footgun.
    """
    global _warned_auto_fallback
    if backend not in ENGINE_BACKENDS:
        raise EngineBackendError(
            f"unknown engine backend {backend!r}; "
            f"choose from {ENGINE_BACKENDS}"
        )
    if backend == "auto":
        if NUMBA_AVAILABLE:
            return "numba"
        if not _warned_auto_fallback:
            _warned_auto_fallback = True
            warnings.warn(
                "engine backend 'auto': numba is not installed, falling "
                "back to the numpy traversal engine (pip install "
                "repro[native] for the jitted kernels)",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    if backend == "numba" and not NUMBA_AVAILABLE:
        raise EngineBackendError(
            "engine backend 'numba' requested but numba is not installed; "
            "pip install repro[native] (or use backend='auto' to fall "
            "back to numpy)"
        )
    return backend


def _jit(**kwargs):
    """``numba.njit`` when available, identity otherwise (plain-Python mode)."""
    if NUMBA_AVAILABLE:
        return _numba.njit(cache=False, **kwargs)
    return lambda fn: fn


#: ``numba.prange`` under the jit, plain ``range`` in fallback mode.
prange = _numba.prange if NUMBA_AVAILABLE else range


# --------------------------------------------------------------------------- #
# Per-packet kernels
# --------------------------------------------------------------------------- #

@_jit(nogil=True)
def descend_one(nodes, values, i, depth):
    """Leaf node index reached by packet ``i``, or ``-2`` on depth overrun.

    ``nodes`` is the unstructured node view; the cut-child arithmetic is the
    same ``(v - lo, base, rem)`` computation the NumPy engine vectorises
    (``rem`` children of ``base + 1`` values, then ``base``-value children).
    """
    node = 0
    steps = 0
    while nodes[node, COL_KIND] != KIND_LEAF:
        # Mirrors Forest.descend's guard: a well-formed tree reaches its
        # leaves within the recorded depth; anything deeper is corruption.
        if steps > depth + 1:
            return _OVERRUN
        steps += 1
        v = values[i, nodes[node, COL_DIM]]
        if nodes[node, COL_KIND] == KIND_CUT:
            base = nodes[node, COL_BASE]
            rem = nodes[node, COL_REM]
            offset = v - nodes[node, COL_LO]
            first = offset // (base + 1)
            if first < rem:
                child = first
            else:
                child = rem + (offset - rem * (base + 1)) // base
        else:  # KIND_SPLIT
            if v >= nodes[node, COL_POINT]:
                child = 1
            else:
                child = 0
        node = nodes[node, COL_CHILD_START] + child
    return node


@_jit(nogil=True)
def lookup_one(nodes, leaf_lo, leaf_hi, values, i, depth):
    """Leaf-rule row matched by packet ``i`` (-1: none, -2: depth overrun).

    Scans the reached leaf's span in order; rows are sorted highest
    priority first at compile time, so the first containing row wins —
    the same answer the NumPy engine's lockstep scan produces.
    """
    node = descend_one(nodes, values, i, depth)
    if node == _OVERRUN:
        return _OVERRUN
    row = nodes[node, COL_RULE_START]
    end = nodes[node, COL_RULE_END]
    while row < end:
        hit = True
        for d in range(values.shape[1]):
            v = values[i, d]
            if v < leaf_lo[row, d] or v >= leaf_hi[row, d]:
                hit = False
                break
        if hit:
            return row
        row += 1
    return -1


# --------------------------------------------------------------------------- #
# Per-batch kernels
# --------------------------------------------------------------------------- #

@_jit(nogil=True, parallel=True)
def descend_batch(nodes, values, depth, out):
    """Fill ``out[i]`` with each packet's leaf index; returns overrun count."""
    overruns = 0
    for i in prange(values.shape[0]):
        leaf = descend_one(nodes, values, i, depth)
        out[i] = leaf
        if leaf == _OVERRUN:
            overruns += 1
    return overruns


@_jit(nogil=True, parallel=True)
def lookup_batch(nodes, leaf_lo, leaf_hi, values, depth, out):
    """Fill ``out[i]`` with each packet's leaf-rule row; returns overruns."""
    overruns = 0
    for i in prange(values.shape[0]):
        row = lookup_one(nodes, leaf_lo, leaf_hi, values, i, depth)
        out[i] = row
        if row == _OVERRUN:
            overruns += 1
    return overruns


@_jit(nogil=True, parallel=True)
def match_batch(nodes, leaf_lo, leaf_hi, leaf_priority, leaf_rule_index,
                values, depth, best_priority, best_rule):
    """Fold one search tree into the per-packet best-match accumulators.

    ``best_priority``/``best_rule`` carry the running winner across the
    classifier's search trees; a hit only replaces it when its priority is
    *strictly* greater, so earlier trees win ties — exactly the NumPy
    dispatcher's merge.  Returns the overrun count.
    """
    overruns = 0
    for i in prange(values.shape[0]):
        row = lookup_one(nodes, leaf_lo, leaf_hi, values, i, depth)
        if row == _OVERRUN:
            overruns += 1
        elif row >= 0 and leaf_priority[row] > best_priority[i]:
            best_priority[i] = leaf_priority[row]
            best_rule[i] = leaf_rule_index[row]
    return overruns


# --------------------------------------------------------------------------- #
# Array-facing wrappers (the backend the dispatcher calls)
# --------------------------------------------------------------------------- #

def _check_overruns(overruns: int, tree: "FlatTree") -> None:
    if overruns:
        raise RuntimeError("flat tree deeper than its recorded depth")


def descend(tree: "FlatTree", values: np.ndarray) -> np.ndarray:
    """Backend-"numba" equivalent of :meth:`FlatTree.descend`."""
    tables = tree.kernel_tables()
    out = np.empty(len(values), dtype=np.int64)
    if len(values):
        overruns = descend_batch(tables.nodes, values, tree.depth, out)
        _check_overruns(overruns, tree)
    return out


def lookup_rows(tree: "FlatTree", values: np.ndarray) -> np.ndarray:
    """Backend-"numba" equivalent of :meth:`FlatTree.lookup`."""
    tables = tree.kernel_tables()
    out = np.empty(len(values), dtype=np.int64)
    if len(values):
        overruns = lookup_batch(tables.nodes, tables.leaf_lo, tables.leaf_hi,
                                values, tree.depth, out)
        _check_overruns(overruns, tree)
    return out


def match_into(tree: "FlatTree", values: np.ndarray,
               best_priority: np.ndarray, best_rule: np.ndarray) -> None:
    """Fold ``tree`` into the dispatcher's best-match accumulators."""
    if not len(values):
        return
    tables = tree.kernel_tables()
    overruns = match_batch(tables.nodes, tables.leaf_lo, tables.leaf_hi,
                           tables.leaf_priority, tables.leaf_rule_index,
                           values, tree.depth, best_priority, best_rule)
    _check_overruns(overruns, tree)

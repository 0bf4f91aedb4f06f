"""Shared-memory weight broadcast for process-backend rollout collection.

The classic scatter ships one pickled copy of the flat weight vector inside
*every* :class:`~repro.neurocuts.workers.ShardRequest` — ``num_workers``
copies per round through the pool's pipes.  This module publishes the
snapshot **once** into a ``multiprocessing.shared_memory`` block and ships
only a tiny picklable :class:`WeightHandle` (segment name + length +
generation stamp) per request; workers attach, copy out, and detach.

The block is **double-buffered with a seqlock-style stamp** per slot:

* The writer (the learner) publishes generation ``g`` into slot ``g % 2``.
  It first marks the slot's stamp *odd* (``2g + 1``: write in progress),
  copies the payload, then sets the stamp *even* (``2g``: stable).
* A reader holding a handle for generation ``g`` attaches slot ``g % 2``,
  spins past an odd stamp, copies the payload, and re-checks the stamp —
  a torn read is impossible to return.  A stamp that settled on a *newer*
  generation means the writer lapped the reader: the bounded-staleness
  contract (at most two live generations, one per slot) was violated, and
  the reader raises instead of silently training on unknown weights.

Why double buffering is enough: the training loop keeps at most one round
in flight, and a round reading generation ``g`` is always gathered before
generation ``g + 2`` (the next occupant of the same slot) is published.  The staleness bound is therefore *structural* — enforced by
slot reuse, not by trusting wall-clock luck.

Serial and thread backends skip all of this and keep the inline ndarray
(same bytes either way, so histories are byte-identical — the fallback the
determinism tests pin).  The module degrades gracefully where
``multiprocessing.shared_memory`` is unavailable: ``shared_memory_available()``
returns False and the trainer stays on inline broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

try:  # pragma: no cover - import probe
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shm = None

#: int64 header words: [stamp_slot0, stamp_slot1], then the two payload
#: slots (each ``capacity`` float64s) follow.
_HEADER_WORDS = 2


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can back a broadcast."""
    return _shm is not None


@dataclass(frozen=True)
class WeightHandle:
    """The picklable descriptor of one published weight generation.

    What a :class:`~repro.neurocuts.workers.ShardRequest` carries instead
    of the flat ndarray: workers resolve it with :func:`read_weights`.
    """

    shm_name: str
    length: int
    generation: int


class WeightBroadcast:
    """One double-buffered shared-memory block publishing flat weights.

    Owned (created and unlinked) by the learner process; worker processes
    only ever attach read-only via :func:`read_weights`.
    """

    def __init__(self, capacity: int) -> None:
        if _shm is None:
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable; gate on "
                "shared_memory_available() before building a WeightBroadcast"
            )
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        nbytes = 8 * (_HEADER_WORDS + 2 * self.capacity)
        self._shm = _shm.SharedMemory(create=True, size=nbytes)
        self._stamps = np.ndarray((_HEADER_WORDS,), dtype=np.int64,
                                  buffer=self._shm.buf)
        # Stamps start at -1: no generation has ever occupied either slot,
        # and -1 is neither odd-in-progress (2g + 1 >= 1) nor any valid
        # stable stamp (2g >= 0).
        self._stamps[:] = -1
        self._slots = np.ndarray((2, self.capacity), dtype=np.float64,
                                 buffer=self._shm.buf,
                                 offset=8 * _HEADER_WORDS)

    @property
    def name(self) -> str:
        return self._shm.name

    def publish(self, flat: np.ndarray, generation: int) -> WeightHandle:
        """Publish one weight snapshot; returns the handle workers resolve.

        ``generation`` must be strictly increasing across publishes (the
        trainer uses the collection-round index, which also stamps the
        checkpoint/replay bookkeeping).
        """
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.ndim != 1 or len(flat) > self.capacity:
            raise ValueError(
                f"flat weights must be 1-D with <= {self.capacity} entries, "
                f"got shape {flat.shape}"
            )
        if generation < 0:
            raise ValueError("generation must be >= 0")
        slot = generation % 2
        self._stamps[slot] = 2 * generation + 1  # odd: write in progress
        self._slots[slot, :len(flat)] = flat
        self._stamps[slot] = 2 * generation      # even: stable
        return WeightHandle(shm_name=self._shm.name, length=len(flat),
                            generation=generation)

    def close(self) -> None:
        """Release and destroy the segment (idempotent)."""
        if self._shm is None:
            return
        # Drop the exported ndarray views first: SharedMemory.close()
        # refuses while a memoryview of the buffer is still alive.
        self._stamps = None
        self._slots = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None

    def __enter__(self) -> "WeightBroadcast":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach(name: str) -> "_shm.SharedMemory":
    """Attach an existing segment without resource-tracker side effects.

    Before 3.13 (``track=False``), every attach registers the segment with
    the resource tracker — which the spawn children *share* with the
    learner — and the tracker then unlinks the learner's live segment when
    any child exits.  Unregistering after attach is no better: the tracker's
    cache is one shared set, so a child's unregister deletes the learner's
    own (create-time) entry and its legitimate unlink later trips a
    KeyError in the tracker.  Instead, suppress registration *during* the
    attach: pool children run tasks single-threaded, so the patch window
    races nothing.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def read_weights(handle: WeightHandle, retries: int = 1000) -> np.ndarray:
    """Resolve a handle to a private copy of its weight generation.

    Seqlock read of slot ``generation % 2``: spin past an in-progress
    write, copy, re-check.  Raises :class:`RuntimeError` when the slot has
    moved past the handle's generation — the staleness bound was violated
    and the snapshot no longer exists anywhere.
    """
    if _shm is None:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    segment = _attach(handle.shm_name)
    try:
        stamps = np.ndarray((_HEADER_WORDS,), dtype=np.int64,
                            buffer=segment.buf)
        slot = handle.generation % 2
        stable = 2 * handle.generation
        for _ in range(max(1, retries)):
            before = int(stamps[slot])
            if before % 2 != 0 or before < 0:
                continue  # write in progress; spin
            if before != stable:
                break  # settled on a different generation: stale handle
            payload = np.ndarray((handle.length,), dtype=np.float64,
                                 buffer=segment.buf,
                                 offset=8 * (_HEADER_WORDS + slot *
                                             ((segment.size // 8 -
                                               _HEADER_WORDS) // 2)))
            copied = payload.copy()
            if int(stamps[slot]) == before:
                return copied
        raise RuntimeError(
            f"weight generation {handle.generation} is gone from slot "
            f"{slot} (stamp {int(stamps[slot])}): the one-round "
            f"staleness bound was violated"
        )
    finally:
        # Release ndarray views before closing (memoryview export rule).
        stamps = None
        payload = None  # noqa: F841
        segment.close()


def resolve_weights(weights) -> np.ndarray:
    """Inline ndarray or :class:`WeightHandle` -> flat weight ndarray."""
    if isinstance(weights, WeightHandle):
        return read_weights(weights)
    return weights


__all__ = [
    "WeightBroadcast",
    "WeightHandle",
    "read_weights",
    "resolve_weights",
    "shared_memory_available",
]

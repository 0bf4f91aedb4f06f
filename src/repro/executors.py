"""Backend-pluggable task executors (the actor half of actor/learner training).

The paper scales NeuroCuts by collecting decision-tree rollouts on many
parallel workers (Figure 7).  This module is the execution substrate for that
and for background retrains: :func:`make_executor` returns a standard
:class:`concurrent.futures.Executor` on one of three backends —

* ``"serial"`` — :class:`SerialExecutor` runs tasks inline in the calling
  process.  Serial execution is a first-class backend, not a degenerate
  case: determinism tests and perf tracing rely on it producing
  byte-identical results to a one-worker pool, on the caller's own stack.
* ``"process"`` — a spawn-based :class:`concurrent.futures.ProcessPoolExecutor`.
  Its workers persist across ``map`` calls, so per-iteration work does not
  pay process start-up and initializer costs every time, and a worker that
  dies raises ``BrokenProcessPool`` instead of hanging the caller.
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor` for tasks
  that must share the caller's memory (no pickling) and overlap it, e.g. a
  background NeuroCuts retrain running beside a serving loop.

Every backend accepts an ``initializer`` so worker processes can build
expensive per-worker state (an environment plus a policy replica) once and
serve many tasks from it; task payloads then only need to carry what changes
per call (a weight snapshot, a seed, a budget).

This module deliberately has no dependencies on the rest of the package so
any layer (``neurocuts``, ``serve``, user code) can import it without cycles.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Callable, Optional, Tuple

#: Backend names accepted by :func:`make_executor`.
EXECUTOR_BACKENDS = ("serial", "thread", "process")


class SerialExecutor(Executor):
    """Runs every task inline in the calling process.

    The ``initializer`` (if any) runs once, lazily, in the calling process
    before the first task, mirroring the per-process set-up a pool backend
    performs in each worker.  ``submit`` returns an already-finished
    :class:`~concurrent.futures.Future`; a task's exception is set on it,
    so callers see the same surface on every backend.
    """

    def __init__(self, initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple = ()) -> None:
        self._initializer = initializer
        self._initargs = initargs

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if self._initializer is not None:
            self._initializer(*self._initargs)
            self._initializer = None
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 - surfaced by result()
            future.set_exception(error)
        return future


def make_executor(num_workers: int,
                  backend: Optional[str] = None,
                  initializer: Optional[Callable[..., None]] = None,
                  initargs: Tuple = ()) -> Executor:
    """Build an executor for ``num_workers`` workers.

    ``backend`` may be ``"serial"``, ``"thread"``, ``"process"``, or ``None``
    to pick automatically (serial for one worker, a process pool otherwise).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if backend is None:
        backend = "serial" if num_workers == 1 else "process"
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
        )
    if backend == "serial":
        return SerialExecutor(initializer=initializer, initargs=initargs)
    if backend == "thread":
        return ThreadPoolExecutor(num_workers, initializer=initializer,
                                  initargs=initargs)
    return ProcessPoolExecutor(num_workers,
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=initializer, initargs=initargs)

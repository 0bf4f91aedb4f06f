"""Backend-pluggable task executors (the actor half of actor/learner training).

The paper scales NeuroCuts by collecting decision-tree rollouts on many
parallel workers (Figure 7).  This module is the execution substrate for that
and for background retrains: a small :class:`RolloutExecutor` interface
with three backends —

* :class:`SerialExecutor` — runs tasks inline in the calling process.  Serial
  execution is a first-class backend, not a degenerate case: determinism
  tests and incremental deployments rely on it producing byte-identical
  results to a one-worker pool.
* :class:`ProcessPoolExecutor` — a *persistent* spawn-based process pool.
  The pool is created lazily on first use and reused across ``map`` calls,
  so per-iteration work (e.g. one PPO batch worth of rollout shards) does not
  pay process start-up and initializer costs every time.
* :class:`ThreadExecutor` — a persistent thread pool for tasks that must
  share the caller's memory (no pickling) and overlap it asynchronously,
  e.g. a background NeuroCuts retrain running beside a serving loop.

Beyond ordered ``map``, every backend supports ``submit`` — fire one task
and get a :class:`TaskHandle` to poll (``ready()``) or await (``result()``).
The serial backend runs submitted tasks inline and returns completed
handles, which keeps single-threaded runs deterministic.

Both backends accept an ``initializer`` so worker processes can build
expensive per-worker state (an environment plus a policy replica) once and
serve many tasks from it; task payloads then only need to carry what changes
per call (a weight snapshot, a seed, a budget).

This module deliberately has no dependencies on the rest of the package so
any layer (``neurocuts``, ``harness``, user code) can import it without
cycles.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.dummy
import multiprocessing.pool
import threading
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Generic, List, Optional, Sequence, \
    Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Backend names accepted by :func:`make_executor`.
EXECUTOR_BACKENDS = ("serial", "thread", "process")


class TaskHandle(Generic[R]):
    """A single in-flight :meth:`RolloutExecutor.submit` task.

    The minimal future surface the serving layer needs: :meth:`ready` to poll
    without blocking (so a serving loop can check for a finished retrain
    between batches) and :meth:`result` to block until the value — or the
    task's exception — is available.
    """

    def ready(self) -> bool:
        """True once :meth:`result` would return without blocking."""
        raise NotImplementedError

    def result(self) -> R:
        """Block until the task finishes; re-raises the task's exception."""
        raise NotImplementedError


class CompletedTask(TaskHandle[R]):
    """A task that already ran (the serial backend submits eagerly)."""

    def __init__(self, value: Optional[R] = None,
                 error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error

    def ready(self) -> bool:
        return True

    def result(self) -> R:
        if self._error is not None:
            raise self._error
        return self._value  # type: ignore[return-value]


class _AsyncResultTask(TaskHandle[R]):
    """Wraps a ``multiprocessing`` ``AsyncResult`` (pool backends)."""

    def __init__(self, async_result: multiprocessing.pool.AsyncResult) -> None:
        self._async_result = async_result

    def ready(self) -> bool:
        return self._async_result.ready()

    def result(self) -> R:
        return self._async_result.get()


class RolloutExecutor:
    """Abstract executor: maps a function over items on some backend.

    Implementations must preserve input order in the returned list and may
    hold persistent resources; callers that own an executor should call
    :meth:`shutdown` (or use it as a context manager) when done.
    """

    #: Number of concurrent workers this executor can run (1 for serial).
    num_workers: int = 1

    def map(self, func: Callable[[T], R], items: Sequence[T],
            chunk_size: int = 1) -> List[R]:
        """Apply ``func`` to every item, returning results in input order."""
        raise NotImplementedError

    def submit(self, func: Callable[[T], R], item: T) -> TaskHandle[R]:
        """Start one task and return a handle to poll/await it.

        Pool backends run the task concurrently with the caller; the serial
        backend runs it inline *now* and returns an already-completed handle
        (exceptions are captured and re-raised by ``result()``, so callers
        see uniform behaviour across backends).
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release any persistent resources (idempotent)."""

    def __enter__(self) -> "RolloutExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialExecutor(RolloutExecutor):
    """Runs every task inline in the calling process.

    The ``initializer`` (if any) runs lazily in the calling process before
    the first task, mirroring the per-process set-up a pool backend performs
    in each worker.
    """

    num_workers = 1

    def __init__(self, initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple = ()) -> None:
        self._initializer = initializer
        self._initargs = initargs
        self._initialized = initializer is None

    def map(self, func: Callable[[T], R], items: Sequence[T],
            chunk_size: int = 1) -> List[R]:
        self._ensure_initialized()
        return [func(item) for item in items]

    def submit(self, func: Callable[[T], R], item: T) -> TaskHandle[R]:
        self._ensure_initialized()
        try:
            return CompletedTask(value=func(item))
        except Exception as error:  # noqa: BLE001 - uniform handle surface
            return CompletedTask(error=error)

    def _ensure_initialized(self) -> None:
        if not self._initialized:
            assert self._initializer is not None
            self._initializer(*self._initargs)
            self._initialized = True


class ProcessPoolExecutor(RolloutExecutor):
    """A persistent spawn-based process pool behind the executor interface.

    Unlike ``multiprocessing.Pool`` used as a one-shot context manager, the
    pool here survives across :meth:`map` calls: worker processes (and
    whatever state their ``initializer`` built) are reused until
    :meth:`shutdown`.

    Args:
        num_workers: number of worker processes (>= 1).
        initializer: optional callable run once in every worker process.
        initargs: arguments for ``initializer``.
        context_method: multiprocessing start method (default ``"spawn"``,
            the only method that is safe with threaded BLAS and consistent
            across platforms).
    """

    def __init__(self, num_workers: int,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple = (),
                 context_method: str = "spawn") -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._context_method = context_method
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            context = multiprocessing.get_context(self._context_method)
            self._pool = context.Pool(
                self.num_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    @property
    def is_running(self) -> bool:
        """True once the pool has been started and not yet shut down."""
        return self._pool is not None

    def map(self, func: Callable[[T], R], items: Sequence[T],
            chunk_size: int = 1) -> List[R]:
        items = list(items)
        if not items:
            return []
        pool = self._ensure_pool()
        return pool.map(func, items, chunksize=max(1, int(chunk_size)))

    def submit(self, func: Callable[[T], R], item: T) -> TaskHandle[R]:
        return _AsyncResultTask(self._ensure_pool().apply_async(func, (item,)))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


class ThreadExecutor(RolloutExecutor):
    """A persistent thread pool behind the executor interface.

    Threads share the parent's memory, so tasks need no pickling — the
    backend of choice for background work that must overlap a serving loop
    in the *same* process (e.g. a NeuroCuts retrain kicked off by the
    :class:`~repro.serve.controller.RetrainController`): NumPy releases the
    GIL inside its kernels, so training genuinely overlaps serving.  CPU-bound
    pure-Python tasks should prefer the process backend.
    """

    def __init__(self, num_workers: int,
                 initializer: Optional[Callable[..., None]] = None,
                 initargs: Tuple = ()) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = int(num_workers)
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[multiprocessing.pool.Pool] = None

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.dummy.Pool(
                self.num_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    @property
    def is_running(self) -> bool:
        """True once the pool has been started and not yet shut down."""
        return self._pool is not None

    def map(self, func: Callable[[T], R], items: Sequence[T],
            chunk_size: int = 1) -> List[R]:
        items = list(items)
        if not items:
            return []
        pool = self._ensure_pool()
        return pool.map(func, items, chunksize=max(1, int(chunk_size)))

    def submit(self, func: Callable[[T], R], item: T) -> TaskHandle[R]:
        return _AsyncResultTask(self._ensure_pool().apply_async(func, (item,)))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


def make_executor(num_workers: int,
                  backend: Optional[str] = None,
                  initializer: Optional[Callable[..., None]] = None,
                  initargs: Tuple = ()) -> RolloutExecutor:
    """Build an executor for ``num_workers`` workers.

    ``backend`` may be ``"serial"``, ``"thread"``, ``"process"``, or ``None``
    to pick automatically (serial for one worker, a process pool otherwise).
    """
    if backend is None:
        backend = "serial" if num_workers <= 1 else "process"
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
        )
    if backend == "serial":
        return SerialExecutor(initializer=initializer, initargs=initargs)
    if backend == "thread":
        return ThreadExecutor(num_workers, initializer=initializer,
                              initargs=initargs)
    return ProcessPoolExecutor(num_workers, initializer=initializer,
                               initargs=initargs)


# --------------------------------------------------------------------------- #
# RetrainPool: many submitters multiplexed over one executor, fairly
# --------------------------------------------------------------------------- #


class _PooledTask(TaskHandle[R]):
    """A task queued in (or dispatched by) a :class:`RetrainPool`.

    Until the pool grants it a slot the task has no underlying handle; the
    pool's pump transitions it queued -> running -> done.  ``ready()`` and
    ``result()`` drive the pump, so a caller polling any pooled handle also
    advances everyone else's queue — no dedicated dispatcher thread.
    """

    __slots__ = ("key", "func", "item", "handle", "done", "_value", "_error",
                 "_pool")

    def __init__(self, pool: "RetrainPool", key: str,
                 func: Callable[[T], R], item: T) -> None:
        self._pool = pool
        self.key = key
        self.func = func
        self.item = item
        self.handle: Optional[TaskHandle[R]] = None
        self.done = False
        self._value: Optional[R] = None
        self._error: Optional[BaseException] = None

    def _finish(self) -> None:
        """Capture the underlying handle's outcome (handle must be ready)."""
        assert self.handle is not None
        try:
            self._value = self.handle.result()
        except BaseException as error:  # noqa: BLE001 - uniform surface
            self._error = error
        self.handle = None
        self.done = True

    def ready(self) -> bool:
        self._pool._pump()
        return self.done

    def result(self) -> R:
        self._pool._wait(self)
        if self._error is not None:
            raise self._error
        return self._value  # type: ignore[return-value]


class RetrainPool:
    """Multiplexes many submitters' tasks over one shared executor, fairly.

    Every :class:`~repro.serve.controller.RetrainController` — across all
    tenants — submits here instead of owning a private executor.  Tasks are keyed (by tenant) and dispatched
    round-robin across keys whenever an executor slot frees up, so one noisy
    tenant cannot starve the rest; tasks of the *same* key run in FIFO order.

    The pool is pumped cooperatively from ``ready()``/``result()`` calls on
    its handles — there is no background dispatcher thread, which keeps
    serial-backend pools (capacity 1, tasks run inline at dispatch) exactly
    as deterministic as a private :class:`SerialExecutor`.
    """

    def __init__(self, executor: RolloutExecutor) -> None:
        self._executor = executor
        self._capacity = max(1, int(executor.num_workers))
        self._queues: "OrderedDict[str, Deque[_PooledTask]]" = OrderedDict()
        self._running: List[_PooledTask] = []
        self._lock = threading.RLock()
        #: Total tasks ever submitted through the pool (monotonic).
        self.submitted = 0

    @property
    def executor(self) -> RolloutExecutor:
        """The shared underlying executor (for reuse assertions/tests)."""
        return self._executor

    @property
    def capacity(self) -> int:
        return self._capacity

    def queue_depth(self) -> int:
        """Tasks waiting for a slot (excludes running tasks)."""
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def submit(self, key: str, func: Callable[[T], R],
               item: T) -> TaskHandle[R]:
        """Enqueue one task under ``key`` and return its handle."""
        task = _PooledTask(self, key, func, item)
        with self._lock:
            self.submitted += 1
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = deque()
            queue.append(task)
            self._dispatch_ready()
        return task

    # ------------------------------------------------------------------ #
    # Pump: land finished tasks, grant freed slots round-robin
    # ------------------------------------------------------------------ #

    def _dispatch_ready(self) -> None:
        """Fill free slots from the queues, round-robin across keys.

        Caller holds the lock.  The serial executor runs the task inline
        here, so its slot frees immediately and the loop continues until
        the queues drain — preserving serial determinism.
        """
        while len(self._running) < self._capacity and self._queues:
            key, queue = next(iter(self._queues.items()))
            task = queue.popleft()
            # Rotate the key to the back (or drop it when drained) *before*
            # running the task: inline serial tasks re-enter the loop.
            del self._queues[key]
            if queue:
                self._queues[key] = queue
            task.handle = self._executor.submit(task.func, task.item)
            if task.handle.ready():
                task._finish()
            else:
                self._running.append(task)

    def _pump(self) -> None:
        with self._lock:
            finished = [t for t in self._running if t.handle.ready()]
            if finished:
                for task in finished:
                    task._finish()
                self._running = [t for t in self._running if not t.done]
            self._dispatch_ready()

    def _wait(self, task: _PooledTask) -> None:
        """Block until ``task`` is done, pumping the pool as tasks land."""
        while True:
            self._pump()
            if task.done:
                return
            with self._lock:
                # Block on the task itself once running, else on the oldest
                # running task (its completion frees a slot and the pump
                # advances the queues).
                target = task if task.handle is not None else (
                    self._running[0] if self._running else None)
                handle = target.handle if target is not None else None
            if handle is None:
                continue  # dispatch raced us; re-pump
            try:
                handle.result()
            except BaseException:  # noqa: BLE001 - landed via _finish later
                pass


# --------------------------------------------------------------------------- #
# Shared retrain pools: one multiplexed pool per (backend, size) per process
# --------------------------------------------------------------------------- #

_SHARED_RETRAIN_POOLS: Dict[Tuple[str, int], RetrainPool] = {}


def shared_retrain_pool(num_workers: int,
                        backend: str = "thread") -> RetrainPool:
    """The process-local shared retrain pool for this width and backend.

    All retrain controllers in a process that ask for the same
    ``(backend, num_workers)`` get the *same* :class:`RetrainPool` (and thus
    the same underlying executor) — the fleet-trainer contract that retrains
    across tenants multiplex over one pool instead of each
    controller spawning its own.  Pools live until
    :func:`shutdown_shared_retrain_pools` or interpreter exit.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
        )
    key = (backend, int(num_workers))
    pool = _SHARED_RETRAIN_POOLS.get(key)
    if pool is None:
        pool = RetrainPool(make_executor(num_workers, backend=backend))
        _SHARED_RETRAIN_POOLS[key] = pool
    return pool


def shutdown_shared_retrain_pools() -> None:
    """Shut down every shared retrain pool (recreated lazily if needed)."""
    for pool in list(_SHARED_RETRAIN_POOLS.values()):
        pool.executor.shutdown()
    _SHARED_RETRAIN_POOLS.clear()


atexit.register(shutdown_shared_retrain_pools)

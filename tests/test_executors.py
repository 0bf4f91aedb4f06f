"""Tests for the executor layer: ``make_executor`` over ``concurrent.futures``."""

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.executors import EXECUTOR_BACKENDS, SerialExecutor, make_executor


def _square(x):
    return x * x


def _getpid(_):
    return os.getpid()


_INIT_STATE = {}


def _record_init(tag):
    _INIT_STATE["tag"] = tag


def _read_init(_):
    return _INIT_STATE.get("tag")


def _fail(_):
    raise RuntimeError("task boom")


def _die(_):
    os._exit(3)


class TestSerialExecutor:
    def test_maps_in_order(self):
        executor = SerialExecutor()
        assert list(executor.map(_square, [1, 2, 3])) == [1, 4, 9]

    def test_initializer_runs_once_before_first_task(self):
        _INIT_STATE.clear()
        executor = SerialExecutor(initializer=_record_init, initargs=("x",))
        assert list(executor.map(_read_init, [0])) == ["x"]
        _INIT_STATE["tag"] = "mutated"
        # A second map must not re-run the initializer.
        assert list(executor.map(_read_init, [0])) == ["mutated"]

    def test_context_manager(self):
        with SerialExecutor() as executor:
            assert list(executor.map(_square, [4])) == [16]


class TestProcessPoolExecutor:
    def test_pool_persists_across_maps(self):
        with make_executor(1, backend="process") as executor:
            first = list(executor.map(_getpid, [0, 1]))
            second = list(executor.map(_getpid, [0, 1]))
        # Same worker process served both calls: the pool was reused, and it
        # is a different process from the parent.
        assert set(first) == set(second)
        assert os.getpid() not in first

    def test_initializer_runs_in_workers(self):
        _INIT_STATE.clear()
        with make_executor(1, backend="process", initializer=_record_init,
                           initargs=("worker",)) as executor:
            assert list(executor.map(_read_init, [0])) == ["worker"]
        # Parent process state untouched: the initializer ran in the child.
        assert _INIT_STATE == {}

    def test_empty_map_does_not_start_pool(self):
        before = set(multiprocessing.active_children())
        with make_executor(2, backend="process") as executor:
            assert list(executor.map(_square, [])) == []
            assert set(multiprocessing.active_children()) == before

    def test_shutdown_idempotent(self):
        before = set(multiprocessing.active_children())
        executor = make_executor(1, backend="process")
        assert list(executor.map(_square, [2])) == [4]
        executor.shutdown()
        executor.shutdown()
        assert set(multiprocessing.active_children()) <= before

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            make_executor(0, backend="process")

    def test_dead_worker_raises_broken_pool_instead_of_hanging(self):
        """A rollout worker that exits mid-task fails the caller with a
        typed error.  The call runs on a daemon thread so a hang fails the
        test at the join timeout instead of stalling the suite."""
        before = set(multiprocessing.active_children())
        executor = make_executor(1, backend="process")
        outcome = {}

        def run():
            try:
                outcome["value"] = list(executor.map(_die, [0]))
            except Exception as error:  # noqa: BLE001 - inspected below
                outcome["error"] = error

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "map blocked on a dead worker"
        assert isinstance(outcome.get("error"), BrokenProcessPool)
        executor.shutdown()
        assert set(multiprocessing.active_children()) <= before


class TestMakeExecutor:
    def test_auto_backend(self):
        assert isinstance(make_executor(1), SerialExecutor)
        executor = make_executor(2)
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor._max_workers == 2
        executor.shutdown()

    def test_explicit_backend(self):
        executor = make_executor(1, backend="process")
        assert isinstance(executor, ProcessPoolExecutor)
        executor.shutdown()
        assert isinstance(make_executor(4, backend="serial"), SerialExecutor)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_executor(2, backend="threads")
        with pytest.raises(ValueError):
            make_executor(0)
        assert "serial" in EXECUTOR_BACKENDS and "process" in EXECUTOR_BACKENDS

    def test_thread_backend(self):
        executor = make_executor(2, backend="thread")
        assert isinstance(executor, ThreadPoolExecutor)
        assert executor._max_workers == 2
        executor.shutdown()


class TestSubmit:
    def test_serial_submit_runs_inline(self):
        future = SerialExecutor().submit(_square, 6)
        assert future.done()
        assert future.result() == 36

    def test_serial_submit_captures_exceptions(self):
        future = SerialExecutor().submit(_fail, 0)
        assert future.done()
        with pytest.raises(RuntimeError, match="task boom"):
            future.result()

    def test_completed_task_surface(self):
        # The serial backend hands back a standard, already-finished future.
        future = SerialExecutor().submit(_square, 3)
        assert isinstance(future, Future)
        assert not future.running() and not future.cancelled()
        assert future.exception() is None and future.result() == 9

    def test_thread_submit_overlaps_caller(self):
        release = threading.Event()
        with make_executor(1, backend="thread") as executor:
            # The task blocks until the caller, still running, releases it.
            blocked = executor.submit(release.wait, 10)
            assert not blocked.done()
            release.set()
            assert blocked.result() is True
            assert executor.submit(_square, 7).result() == 49
            failing = executor.submit(_fail, 0)
            with pytest.raises(RuntimeError, match="task boom"):
                failing.result()

    def test_thread_map_preserves_order(self):
        with make_executor(2, backend="thread") as executor:
            assert list(executor.map(_square, [1, 2, 3, 4])) == [1, 4, 9, 16]
            # Threads share the caller's process.
            assert list(executor.map(_getpid, [0]))[0] == os.getpid()

    def test_process_submit(self):
        with make_executor(1, backend="process") as executor:
            future = executor.submit(_square, 8)
            assert future.result() == 64
            assert future.done()

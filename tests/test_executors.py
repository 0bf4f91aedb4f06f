"""Tests for the backend-pluggable executor layer."""

import os

import pytest

from repro.executors import (
    CompletedTask,
    EXECUTOR_BACKENDS,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)


def _square(x):
    return x * x


def _getpid(_):
    return os.getpid()


_INIT_STATE = {}


def _record_init(tag):
    _INIT_STATE["tag"] = tag


def _read_init(_):
    return _INIT_STATE.get("tag")


class TestSerialExecutor:
    def test_maps_in_order(self):
        executor = SerialExecutor()
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor.num_workers == 1

    def test_initializer_runs_once_before_first_task(self):
        _INIT_STATE.clear()
        executor = SerialExecutor(initializer=_record_init, initargs=("x",))
        assert executor.map(_read_init, [0]) == ["x"]
        _INIT_STATE["tag"] = "mutated"
        # A second map must not re-run the initializer.
        assert executor.map(_read_init, [0]) == ["mutated"]

    def test_context_manager(self):
        with SerialExecutor() as executor:
            assert executor.map(_square, [4]) == [16]


class TestProcessPoolExecutor:
    def test_pool_persists_across_maps(self):
        with ProcessPoolExecutor(1) as executor:
            assert not executor.is_running
            first = executor.map(_getpid, [0, 1])
            assert executor.is_running
            second = executor.map(_getpid, [0, 1])
        # Same worker process served both calls: the pool was reused, and it
        # is a different process from the parent.
        assert set(first) == set(second)
        assert os.getpid() not in first

    def test_initializer_runs_in_workers(self):
        _INIT_STATE.clear()
        with ProcessPoolExecutor(1, initializer=_record_init,
                                 initargs=("worker",)) as executor:
            assert executor.map(_read_init, [0]) == ["worker"]
        # Parent process state untouched: the initializer ran in the child.
        assert _INIT_STATE == {}

    def test_empty_map_does_not_start_pool(self):
        with ProcessPoolExecutor(2) as executor:
            assert executor.map(_square, []) == []
            assert not executor.is_running

    def test_shutdown_idempotent(self):
        executor = ProcessPoolExecutor(1)
        executor.map(_square, [2])
        executor.shutdown()
        executor.shutdown()
        assert not executor.is_running

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)


class TestMakeExecutor:
    def test_auto_backend(self):
        assert isinstance(make_executor(1), SerialExecutor)
        executor = make_executor(2)
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor.num_workers == 2
        executor.shutdown()

    def test_explicit_backend(self):
        executor = make_executor(1, backend="process")
        assert isinstance(executor, ProcessPoolExecutor)
        executor.shutdown()
        assert isinstance(make_executor(4, backend="serial"), SerialExecutor)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_executor(2, backend="threads")
        assert "serial" in EXECUTOR_BACKENDS and "process" in EXECUTOR_BACKENDS

    def test_thread_backend(self):
        executor = make_executor(2, backend="thread")
        assert isinstance(executor, ThreadExecutor)
        assert executor.num_workers == 2
        executor.shutdown()


def _fail(_):
    raise RuntimeError("task boom")


class TestSubmit:
    def test_serial_submit_runs_inline(self):
        executor = SerialExecutor()
        handle = executor.submit(_square, 6)
        assert handle.ready()
        assert handle.result() == 36

    def test_serial_submit_captures_exceptions(self):
        handle = SerialExecutor().submit(_fail, 0)
        assert handle.ready()
        with pytest.raises(RuntimeError, match="task boom"):
            handle.result()

    def test_completed_task_surface(self):
        assert CompletedTask(value=3).result() == 3

    def test_thread_submit_overlaps_caller(self):
        with ThreadExecutor(1) as executor:
            handle = executor.submit(_square, 7)
            assert handle.result() == 49
            failing = executor.submit(_fail, 0)
            with pytest.raises(RuntimeError, match="task boom"):
                failing.result()

    def test_thread_map_preserves_order(self):
        with ThreadExecutor(2) as executor:
            assert executor.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            # Threads share the caller's process.
            assert executor.map(_getpid, [0])[0] == os.getpid()

    def test_process_submit(self):
        with ProcessPoolExecutor(1) as executor:
            handle = executor.submit(_square, 8)
            assert handle.result() == 64
            assert handle.ready()

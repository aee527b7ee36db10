"""Unit tests for the shared worker-process pool (:mod:`repro.pool`)."""

import os
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.pool import (
    RetryingTaskPool,
    WorkerDied,
    WorkerHandle,
    exp_backoff,
    resolve_mp_context,
    wait_workers,
)


@dataclass(frozen=True)
class Task:
    flat_index: int
    mode: str = "ok"
    timeout_s: Optional[float] = None


def _entry(task, attempt):
    if task.mode == "fail":
        raise ValueError("boom")
    if task.mode == "flaky" and attempt == 0:
        raise ValueError("first attempt only")
    if task.mode == "die":
        os._exit(7)
    if task.mode == "hang":
        time.sleep(60)
    return {"idx": task.flat_index, "attempt": attempt}


def _echo_child(conn):
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg == "quit":
            conn.close()
            return
        conn.send(("echo", msg))


def _dead_child(conn):
    os._exit(3)


class Hooks:
    """Records every pool callback for assertions."""

    def __init__(self):
        self.success = []
        self.retries = []
        self.exhausted = []
        self.started = []
        self.skipped = []

    def kwargs(self, should_skip=lambda t: False):
        return dict(
            should_skip=should_skip,
            on_skip=lambda t: self.skipped.append(t.flat_index),
            on_start=lambda t, a: self.started.append((t.flat_index, a)),
            on_success=lambda t, a, payload, dur:
                self.success.append((t.flat_index, a, payload)),
            on_retry=lambda t, a, reason:
                self.retries.append((t.flat_index, a, reason)),
            on_exhausted=lambda t, attempts, reason:
                self.exhausted.append((t.flat_index, attempts, reason)))


class TestBackoff:
    def test_doubles_per_attempt(self):
        assert exp_backoff(0.25, 0) == 0.25
        assert exp_backoff(0.25, 1) == 0.5
        assert exp_backoff(0.25, 3) == 2.0


class TestWorkerHandle:
    def test_duplex_echo_and_eof(self):
        ctx = resolve_mp_context()
        handle = WorkerHandle.spawn(ctx, _echo_child, duplex=True)
        handle.send("ping")
        assert handle.recv() == ("echo", "ping")
        handle.send("quit")
        handle.join(5)
        handle.close()

    def test_dead_worker_reads_as_worker_died(self):
        ctx = resolve_mp_context()
        handle = WorkerHandle.spawn(ctx, _dead_child, duplex=True)
        handle.join(5)
        try:
            handle.recv()
        except WorkerDied:
            pass
        else:
            raise AssertionError("expected WorkerDied")
        finally:
            handle.close()

    def test_wait_workers_sees_readable_pipe(self):
        ctx = resolve_mp_context()
        handle = WorkerHandle.spawn(ctx, _echo_child, duplex=True)
        assert wait_workers([handle], timeout=0.05) == []
        handle.send("hello")
        deadline = time.monotonic() + 5
        ready = []
        while not ready and time.monotonic() < deadline:
            ready = wait_workers([handle], timeout=0.1)
        assert ready == [handle]
        handle.recv()
        handle.send("quit")
        handle.join(5)
        handle.close()

    def test_deadline_expiry(self):
        ctx = resolve_mp_context()
        handle = WorkerHandle.spawn(ctx, _echo_child, duplex=True,
                                    timeout_s=0.01)
        time.sleep(0.05)
        assert handle.expired()
        handle.terminate()


class TestRetryingTaskPool:
    def _pool(self, **kw):
        kw.setdefault("workers", 2)
        kw.setdefault("backoff_s", 0.01)
        return RetryingTaskPool(_entry, **kw)

    def test_success_payloads_and_count(self):
        hooks = Hooks()
        n = self._pool().run([Task(i) for i in range(4)], **hooks.kwargs())
        assert n == 4
        assert sorted(p["idx"] for _i, _a, p in hooks.success) \
            == [0, 1, 2, 3]
        assert all(a == 0 for _i, a, _p in hooks.success)

    def test_flaky_task_retries_then_succeeds(self):
        hooks = Hooks()
        n = self._pool().run([Task(0, "flaky")], **hooks.kwargs())
        assert n == 1
        assert [(i, a) for i, a, _r in hooks.retries] == [(0, 0)]
        assert hooks.success[0][1] == 1     # succeeded on attempt 1

    def test_raise_exhausts_with_reason(self):
        hooks = Hooks()
        n = self._pool(retries=1).run([Task(0, "fail")], **hooks.kwargs())
        assert n == 1
        assert hooks.exhausted == [(0, 2, "ValueError: boom")]

    def test_in_process_raise_exhausts_with_reason(self):
        hooks = Hooks()
        n = self._pool(workers=1, retries=1).run(
            [Task(0, "fail")], **hooks.kwargs())
        assert n == 1
        assert hooks.started == [(0, 0), (0, 1)]
        assert hooks.retries == [(0, 0, "ValueError: boom")]
        assert hooks.exhausted == [(0, 2, "ValueError: boom")]

    def test_in_process_flaky_task_retries_then_succeeds(self):
        hooks = Hooks()
        n = self._pool(workers=1).run([Task(0, "flaky")], **hooks.kwargs())
        assert n == 1
        assert hooks.retries == [(0, 0, "ValueError: first attempt only")]
        assert hooks.started == [(0, 0), (0, 1)]
        assert hooks.success == [(0, 1, {"idx": 0, "attempt": 1})]

    def test_in_process_retry_does_not_hold_back_later_tasks(self):
        hooks = Hooks()
        self._pool(workers=1, backoff_s=0.05).run(
            [Task(0, "flaky"), Task(1), Task(2)], **hooks.kwargs())
        assert hooks.started == [(0, 0), (1, 0), (2, 0), (0, 1)]
        assert [(i, a) for i, a, _p in hooks.success] \
            == [(1, 0), (2, 0), (0, 1)]

    def test_dead_worker_is_a_failed_attempt(self):
        hooks = Hooks()
        self._pool(retries=0).run([Task(0, "die")], **hooks.kwargs())
        assert hooks.exhausted[0][2] == "worker died without a result"

    def test_hung_worker_times_out_with_noun(self):
        hooks = Hooks()
        pool = self._pool(retries=0, timeout_s=0.2)
        pool.run([Task(0, "hang")], **hooks.kwargs())
        assert hooks.exhausted[0][2] == "timeout: shard exceeded 0.2s"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_budget_bounds_consumption(self, workers):
        hooks = Hooks()
        n = self._pool(workers=workers).run(
            [Task(i) for i in range(5)], budget=2, **hooks.kwargs())
        assert n == 2
        assert len(hooks.success) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skip_consumes_no_budget(self, workers):
        hooks = Hooks()
        n = self._pool(workers=workers).run(
            [Task(i) for i in range(3)], budget=2,
            **hooks.kwargs(should_skip=lambda t: t.flat_index == 0))
        assert hooks.skipped == [0]
        assert n == 2
        assert sorted(i for i, _a, _p in hooks.success) == [1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_launch_order_is_deterministic(self, workers):
        hooks = Hooks()
        self._pool(workers=workers).run(
            [Task(i) for i in (3, 1, 2, 0)], **hooks.kwargs())
        assert [i for i, _a in hooks.started] == [0, 1, 2, 3]

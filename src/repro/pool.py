"""Shared worker-process lifecycle: spawn, watch, time out, retry.

Two subsystems run simulator work in child processes: the campaign
executor (:mod:`repro.campaign.pool` — one process per shard, one
result per process) and the session service (:mod:`repro.serve` —
long-lived shard workers hosting resident sessions).  Both need the
same machinery underneath:

* a deterministic multiprocessing context (``fork`` where available,
  ``spawn`` otherwise);
* a handle pairing a child process with its pipe, with deadline
  bookkeeping and a kill switch;
* dead-worker detection — a worker that *raises* reports the error
  over its pipe, one that *dies* (segfault, ``os._exit``, kill -9)
  is detected by the closed pipe (EOF), one that *hangs* past its
  deadline is terminated;
* retry with exponential backoff, and graceful degradation when the
  retry budget is exhausted.

:class:`RetryingTaskPool` is the campaign executor's one loop: one
process per task, or the same skips, budget, retries and backoff
in-process when ``workers <= 1``.  :class:`WorkerHandle` and
:func:`wait_workers` are the lower-level pieces the serve shard pool
builds its long-lived workers from.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from typing import Callable, Optional

from multiprocessing.connection import wait as _conn_wait


def resolve_mp_context(name: Optional[str] = None):
    """A multiprocessing context: ``name`` if given, else ``fork``
    where the platform supports it (cheap, inherits the parent's
    loaded modules), else ``spawn``."""
    if name is None:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() \
            else "spawn"
    return multiprocessing.get_context(name)


def exp_backoff(base_s: float, attempt: int) -> float:
    """Delay before retry number ``attempt + 1`` (attempt 0 failed)."""
    return base_s * 2 ** attempt


class WorkerDied(Exception):
    """The worker's pipe closed without a payload (EOF)."""


class WorkerHandle:
    """One child process plus the pipe the parent talks to it over.

    ``meta`` is caller-owned context (a task, a shard index, ...).
    ``deadline`` is an absolute ``time.monotonic()`` limit or None;
    :meth:`expired` checks it.  The handle never *polls* liveness by
    itself — combine :func:`wait_workers` (readable pipes) with
    :meth:`recv`'s :class:`WorkerDied` to detect death, exactly like
    the campaign pool does.
    """

    __slots__ = ("proc", "conn", "meta", "deadline", "started")

    def __init__(self, proc, conn, *, meta=None,
                 deadline: Optional[float] = None):
        self.proc = proc
        self.conn = conn
        self.meta = meta
        self.deadline = deadline
        self.started = time.monotonic()

    @classmethod
    def spawn(cls, ctx, target: Callable, args: tuple = (), *, meta=None,
              timeout_s: Optional[float] = None,
              duplex: bool = False) -> "WorkerHandle":
        """Start ``target(child_conn, *args)`` in a child process.

        The child end of the pipe is the target's first argument and is
        closed in the parent, so a dead child reads as EOF here.
        ``duplex=True`` gives a two-way pipe for long-lived workers.
        """
        parent, child = ctx.Pipe(duplex=duplex)
        proc = ctx.Process(target=target, args=(child,) + tuple(args))
        proc.start()
        child.close()
        now = time.monotonic()
        deadline = now + timeout_s if timeout_s is not None else None
        return cls(proc, parent, meta=meta, deadline=deadline)

    # -- talking ------------------------------------------------------------

    def send(self, obj) -> None:
        self.conn.send(obj)

    def recv(self):
        """The next payload; raises :class:`WorkerDied` on EOF."""
        try:
            return self.conn.recv()
        except EOFError:
            raise WorkerDied(
                f"worker pid={self.proc.pid} died without a result") \
                from None

    def readable(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    # -- lifecycle ----------------------------------------------------------

    def alive(self) -> bool:
        return self.proc.is_alive()

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def join(self, timeout: Optional[float] = None) -> None:
        self.proc.join(timeout)

    def terminate(self) -> None:
        """Kill the worker and release the pipe (idempotent)."""
        try:
            self.proc.terminate()
        except Exception:
            pass
        self.proc.join()
        self.close()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass


def wait_workers(handles, timeout: Optional[float] = None) -> list:
    """The handles whose pipe is readable (payload or EOF) within
    ``timeout`` seconds — the select() of the worker plane."""
    handles = list(handles)
    if not handles:
        return []
    ready = _conn_wait([h.conn for h in handles], timeout=timeout)
    return [h for h in handles if h.conn in ready]


# -- one task per process, with retries ----------------------------------------------


def _task_entry(conn, entry: Callable, task, attempt: int) -> None:
    """Worker-process body: run one task, ship the result back."""
    try:
        payload = (True, entry(task, attempt))
    except BaseException as exc:
        payload = (False, f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except Exception:
        pass
    finally:
        conn.close()


class RetryingTaskPool:
    """Deterministic task executor with retry/backoff.

    With ``workers >= 2`` it runs ``entry(task, attempt)`` in a child
    process per task, at most ``workers`` alive at a time; an attempt
    fails when the worker raises, dies (EOF) or outlives its deadline
    (terminated).  With ``workers <= 1`` it calls ``entry`` in this
    process: no child, no deadline, and an exception is the failed
    attempt.  Either way failed attempts are retried with exponential
    backoff up to ``retries`` times, then reported as exhausted —
    degradation is the caller's policy, never the pool's.  A task
    waiting out its backoff holds back no other task.

    The caller observes everything through hooks (all optional):

    ``should_skip(task)`` / ``on_skip(task)``
        Checked at launch time; a skipped task consumes no budget.
    ``on_start(task, attempt)``
        An attempt is about to start.
    ``on_success(task, attempt, payload, duration_s)``
        The task's result arrived.
    ``on_retry(task, attempt, reason)``
        The attempt failed and a retry is scheduled.
    ``on_exhausted(task, attempts, reason)``
        The retry budget ran out.

    Tasks carry a unique integer ``flat_index`` (the deterministic
    launch order) and an optional ``timeout_s`` that overrides the
    pool-wide ``timeout_s``.

    ``budget`` bounds how many tasks (successes + exhausted failures,
    launched or in flight) the call may consume — the campaign's
    ``--max-shards`` semantics.
    """

    def __init__(self, entry: Callable, *, workers: int, retries: int = 2,
                 backoff_s: float = 0.25, timeout_s: Optional[float] = None):
        self.entry = entry
        self.workers = max(workers, 1)
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.ctx = resolve_mp_context()

    def _limit(self, task) -> Optional[float]:
        return task.timeout_s if task.timeout_s is not None \
            else self.timeout_s

    def run(self, tasks, *, budget: Optional[int] = None,
            should_skip: Callable = lambda task: False,
            on_skip: Callable = lambda task: None,
            on_start: Callable = lambda task, attempt: None,
            on_success: Callable = lambda task, attempt, payload, dur: None,
            on_retry: Callable = lambda task, attempt, reason: None,
            on_exhausted: Callable = lambda task, attempts, reason: None,
            ) -> int:
        """Drive ``tasks`` to completion; returns tasks consumed."""
        # (not_before, flat_index, task, attempt); the index keeps heap
        # order total and deterministic
        ready = [(0.0, t.flat_index, t, 0) for t in tasks]
        heapq.heapify(ready)
        active: dict = {}
        consumed = 0

        def budget_left() -> bool:
            return budget is None or consumed + len(active) < budget

        def succeed(task, attempt: int, payload, duration: float) -> None:
            nonlocal consumed
            on_success(task, attempt, payload, duration)
            consumed += 1

        def fail_attempt(task, attempt: int, reason: str) -> None:
            nonlocal consumed
            if attempt < self.retries:
                on_retry(task, attempt, reason)
                not_before = time.monotonic() \
                    + exp_backoff(self.backoff_s, attempt)
                heapq.heappush(ready, (not_before, task.flat_index,
                                       task, attempt + 1))
            else:
                on_exhausted(task, attempt + 1, reason)
                consumed += 1

        try:
            while ready or active:
                now = time.monotonic()
                # launch whatever is due and affordable
                while ready and len(active) < self.workers \
                        and ready[0][0] <= now:
                    if not budget_left():
                        break
                    _nb, order, task, attempt = heapq.heappop(ready)
                    if should_skip(task):
                        on_skip(task)
                        continue
                    on_start(task, attempt)
                    if self.workers > 1:
                        active[order] = WorkerHandle.spawn(
                            self.ctx, _task_entry,
                            (self.entry, task, attempt),
                            meta=(task, attempt),
                            timeout_s=self._limit(task))
                        continue
                    started = time.monotonic()
                    try:
                        payload = self.entry(task, attempt)
                    except Exception as exc:
                        fail_attempt(task, attempt,
                                     f"{type(exc).__name__}: {exc}")
                    else:
                        succeed(task, attempt, payload,
                                time.monotonic() - started)

                if not active:
                    if ready and budget_left():
                        # back off until the earliest retry is due
                        time.sleep(min(max(ready[0][0] - time.monotonic(),
                                           0.0), 0.1) or 0.001)
                        continue
                    break   # budget exhausted or nothing left

                timeout = 0.05
                if any(h.deadline is not None for h in active.values()):
                    soonest = min(h.deadline for h in active.values()
                                  if h.deadline is not None)
                    timeout = min(timeout,
                                  max(soonest - time.monotonic(), 0.0))
                readable = wait_workers(active.values(), timeout=timeout)

                now = time.monotonic()
                for order, handle in list(active.items()):
                    task, attempt = handle.meta
                    if handle in readable:
                        del active[order]
                        try:
                            ok, payload = handle.recv()
                        except WorkerDied:
                            ok, payload = False, \
                                "worker died without a result"
                        handle.close()
                        handle.join()
                        if ok:
                            succeed(task, attempt, payload,
                                    time.monotonic() - handle.started)
                        else:
                            fail_attempt(task, attempt, payload)
                    elif handle.expired(now):
                        del active[order]
                        handle.terminate()
                        fail_attempt(task, attempt, "timeout: shard "
                                     f"exceeded {self._limit(task):g}s")
        finally:
            for handle in active.values():
                handle.terminate()
        return consumed

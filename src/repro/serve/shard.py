"""Shard workers: long-lived simulator processes hosting sessions.

A shard is one child process that stays up for the life of the
service, hosting a set of *resident* sessions and advancing each of
them one slot per ``step`` command — the paper's physical-finger
time-multiplexing applied at process level.  The broker talks to it
over a duplex pipe with a strict request/reply protocol (every reply
doubles as a heartbeat):

===========================  ==========================================
parent -> child              child -> parent
===========================  ==========================================
``("admit", spec, state,     ``("ok", "admit", {session_id,
warmup)``                    slot_cursor})``
``("step",)``                ``("ok", "step", {advanced: [...],
                             slot_s: [...]})``
``("drain_all",)``           ``("ok", "drain_all", {states: {...}})``
``("stop",)``                ``("ok", "stop", {flight}])`` then exit
===========================  ==========================================

Worker-side errors come back as ``("error", message)``; a worker that
*dies* (kill -9, chaos ``os._exit``) is detected by the parent as EOF
on the pipe, exactly like a dead campaign worker.

Every ``step`` reply carries each advanced session's full resumable
state (:meth:`repro.serve.session.SessionWorkload.state`), so the
broker always holds a current checkpoint: migration after a shard
death is "re-admit the last returned state on another shard", with no
replay gap.

Shards can warm their fastpath compile cache on admit via
:meth:`repro.xpp.manager.ConfigurationManager.prefetch` — the K-PACT
idiom: admitting a session compiles its kind's kernels into the
shard's own in-process LRU (:mod:`repro.fastpath.cache`) ahead of the
session's first slot; later admits of that kind are hits.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.pool import WorkerHandle, resolve_mp_context, wait_workers
from repro.serve.journal import ServeJournal
from repro.serve.session import SessionSpec, workload_from_state


def _warmup_kernels(kind: str) -> int:
    """Prefetch-compile the kernels a session kind maps onto the array.

    Returns how many configurations were warmed.  Failures are
    swallowed — warm-up is an optimisation, never a correctness
    dependency — but counted on the ``serve.warmup_failed`` metric.
    """
    from repro.telemetry import get_metrics
    from repro.xpp.manager import ConfigurationManager

    builders = []
    if kind == "rake":
        from repro.kernels.descrambler import build_descrambler_config
        from repro.kernels.despreader import build_despreader_config
        builders = [lambda: build_descrambler_config(),
                    lambda: build_despreader_config(3, 16)]
    elif kind == "ofdm":
        from repro.kernels.fft64 import build_fft_stage_config
        builders = [lambda: build_fft_stage_config(0, [0] * 64)]
    warmed = 0
    mgr = ConfigurationManager()
    for build in builders:
        try:
            if mgr.prefetch(build()) is not None:
                warmed += 1
        except Exception:
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("serve.warmup_failed").inc()
    return warmed


def shard_main(conn, shard_index: int, options: Optional[dict] = None):
    """Worker-process body: serve commands until ``stop`` or EOF."""
    options = options or {}
    flight = None
    if options.get("flight"):
        from repro.telemetry.flight import FlightRecorder
        flight = FlightRecorder(
            max_events=int(options.get("max_events", 4096)))
        flight.__enter__()

    journal = ServeJournal(options["journal_path"]) \
        if options.get("journal_path") else None
    chaos = options.get("chaos") or {}
    die_after = chaos.get("die_after_steps")

    resident: dict = {}
    steps = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break                   # broker went away
            if msg and msg[0] == "stop":
                payload = flight.payload() if flight is not None else None
                try:
                    conn.send(("ok", "stop", {"flight": payload}))
                except Exception:
                    pass
                break
            try:
                reply = _handle(msg, resident, shard_index, journal,
                                steps, die_after)
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            if msg and msg[0] == "step":
                steps += 1
            try:
                conn.send(reply)
            except Exception:
                break
    finally:
        if journal is not None:
            journal.close()
        if flight is not None:
            flight.__exit__(None, None, None)
        try:
            conn.close()
        except Exception:
            pass


def _handle(msg, resident, shard_index, journal, steps, die_after):
    cmd = msg[0]
    if cmd == "admit":
        _cmd, spec_dict, state, warmup = msg
        spec = SessionSpec.from_dict(spec_dict)
        workload = workload_from_state(spec, state)
        resident[spec.session_id] = workload
        warmed = _warmup_kernels(spec.kind) if warmup else 0
        return ("ok", "admit", {"session_id": spec.session_id,
                                "slot_cursor": workload.slot_cursor,
                                "warmed": warmed})
    if cmd == "step":
        if die_after is not None and steps + 1 >= int(die_after):
            # chaos seam: a kill -9 mid-traffic, no goodbye on the pipe
            os._exit(9)
        advanced = []
        slot_s = []
        for sid in sorted(resident):
            workload = resident[sid]
            if workload.done:
                continue
            t0 = time.perf_counter()
            workload.run_slot()
            slot_s.append(round(time.perf_counter() - t0, 6))
            advanced.append({"session_id": sid,
                             "slot_cursor": workload.slot_cursor,
                             "done": workload.done,
                             "counts": dict(workload.counts),
                             "digest": workload.digest,
                             "state": workload.state()})
        for rec in advanced:
            if rec["done"]:
                resident.pop(rec["session_id"], None)
        if journal is not None:
            journal.emit("shard_step", shard=shard_index,
                         sessions=len(advanced), step=steps + 1)
        return ("ok", "step", {"advanced": advanced, "slot_s": slot_s})
    if cmd == "drain_all":
        states = {sid: w.state() for sid, w in sorted(resident.items())}
        resident.clear()
        return ("ok", "drain_all", {"states": states})
    return ("error", f"unknown command {cmd!r}")


class ShardState:
    """Parent-side bookkeeping for one shard worker."""

    __slots__ = ("index", "handle", "resident", "outstanding",
                 "flight_payload")

    def __init__(self, index: int):
        self.index = index
        self.handle: Optional[WorkerHandle] = None
        self.resident: set = set()
        self.outstanding: int = 0       # replies not yet collected
        self.flight_payload = None

    @property
    def alive(self) -> bool:
        return self.handle is not None


class ShardPool:
    """A pool of long-lived shard workers (parent side).

    Mechanics only — spawn/respawn, ordered request/reply over duplex
    pipes, EOF death detection, collection with deadline.  Placement,
    migration and admission *policy* live in
    :class:`repro.serve.broker.SessionBroker`.
    """

    def __init__(self, n_shards: int, *, mp_context: Optional[str] = None,
                 journal_path=None, flight: bool = False,
                 max_events: int = 4096, chaos: Optional[dict] = None):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.ctx = resolve_mp_context(mp_context)
        self.options = {"journal_path": os.fspath(journal_path)
                        if journal_path is not None else None,
                        "flight": flight, "max_events": max_events}
        self.chaos = chaos or {}
        self.shards = [ShardState(i) for i in range(n_shards)]

    # -- lifecycle ----------------------------------------------------------

    def _options_for(self, index: int) -> dict:
        options = dict(self.options)
        if int(self.chaos.get("kill_shard", -1)) == index:
            options["chaos"] = {
                "die_after_steps": self.chaos.get("after_steps", 1)}
        return options

    def start(self) -> None:
        for shard in self.shards:
            self._spawn(shard)

    def _spawn(self, shard: ShardState) -> None:
        shard.handle = WorkerHandle.spawn(
            self.ctx, shard_main, (shard.index,
                                   self._options_for(shard.index)),
            meta=shard.index, duplex=True)
        shard.outstanding = 0
        shard.resident = set()

    def respawn(self, shard: ShardState, *, chaos: bool = False) -> None:
        """Replace a dead shard with a fresh worker (chaos config is
        dropped on respawn unless asked for — a respawned chaos shard
        would just die again)."""
        if shard.handle is not None:
            shard.handle.terminate()
        options = self._options_for(shard.index) if chaos \
            else dict(self.options)
        shard.handle = WorkerHandle.spawn(
            self.ctx, shard_main, (shard.index, options),
            meta=shard.index, duplex=True)
        shard.outstanding = 0
        shard.resident = set()

    def mark_dead(self, shard: ShardState) -> None:
        if shard.handle is not None:
            shard.handle.terminate()
            shard.handle = None
        shard.outstanding = 0

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: collect flight payloads, then terminate."""
        for shard in self.shards:
            if not shard.alive:
                continue
            try:
                shard.handle.send(("stop",))
            except Exception:
                self.mark_dead(shard)
                continue
        deadline = time.monotonic() + timeout_s
        for shard in self.shards:
            if not shard.alive:
                continue
            try:
                while time.monotonic() < deadline:
                    if shard.handle.readable(0.05):
                        reply = shard.handle.recv()
                        if reply[0] == "ok" and reply[1] == "stop":
                            shard.flight_payload = \
                                reply[2].get("flight")
                            break
                    if not shard.handle.alive():
                        break
            except Exception:
                pass
            shard.handle.terminate()
            shard.handle = None

    # -- request / reply ----------------------------------------------------

    def alive_shards(self) -> list:
        return [s for s in self.shards if s.alive]

    def send(self, shard: ShardState, msg: tuple) -> bool:
        """Queue one command; False (and a dead mark) if the pipe is
        already broken."""
        try:
            shard.handle.send(msg)
        except Exception:
            self.mark_dead(shard)
            return False
        shard.outstanding += 1
        return True

    def collect(self, timeout_s: float):
        """Collect every outstanding reply or declare shards dead.

        Returns ``(replies, dead)`` where ``replies`` is a list of
        ``(shard, reply)`` in arrival order and ``dead`` the shards
        that EOF'd or blew the deadline with replies still pending.
        """
        replies = []
        dead = []
        deadline = time.monotonic() + timeout_s
        while any(s.alive and s.outstanding for s in self.shards):
            waiting = [s for s in self.shards if s.alive and s.outstanding]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for shard in waiting:
                    self.mark_dead(shard)
                    dead.append((shard, "heartbeat timeout"))
                break
            ready = wait_workers([s.handle for s in waiting],
                                 timeout=min(remaining, 0.1))
            handles = {s.handle: s for s in waiting}
            for handle in ready:
                shard = handles[handle]
                try:
                    reply = handle.recv()
                except Exception:
                    self.mark_dead(shard)
                    dead.append((shard, "worker died (EOF)"))
                    continue
                shard.outstanding -= 1
                replies.append((shard, reply))
        return replies, dead

"""The session broker: admission, placement, migration, telemetry.

:class:`SessionBroker` is the parent-side service loop.  It owns a
:class:`repro.serve.shard.ShardPool` and drives it in synchronous
*rounds*; each round places queued sessions on the least-loaded alive
shard, advances every resident session one slot (``step``), folds the
replies into per-session state, and handles any shard that died —
which is where the service earns its keep:

* **Admission control** — a bounded queue with per-tenant quotas.
  When the queue is full the session is *shed* (rejected, journaled,
  counted) and the watchdog raises a structured
  :data:`~repro.telemetry.ALERT_QUEUE_SATURATED` alert.
* **Migration** — every ``step`` reply carries the session's full
  resumable state, so the broker always holds a current checkpoint.
  A dead shard's sessions re-enter the queue *with their state* and
  resume on a survivor with no replay gap; the per-slot RNG is a pure
  function of ``(seed, slot)``, so the migrated run is bit-exact with
  an unmigrated one (the chained digest is the proof).
* **Deadlines** — a slot that runs past ``slot_deadline_s`` raises
  :data:`~repro.telemetry.ALERT_DEADLINE`, mirroring the paper's
  hard real-time framing of the slot schedule.

Every lifecycle record — admission, shedding, placement, migration,
alerts, checkpoints — goes through one ``_emit``, which folds it into
the broker's live :class:`repro.journal.Reliability` books and, with a
journal, appends it to :class:`repro.serve.journal.ServeJournal`.  The
reliability keys of :attr:`ServiceResult.stats` therefore equal
:func:`repro.journal.summarize` of the journal, and a killed service
resumes from :func:`repro.serve.journal.recover_sessions`.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from types import SimpleNamespace
from typing import Optional

from repro.journal import Reliability, reliability_markdown
from repro.serve.journal import (
    ServeJournal,
    clear_drain,
    drain_requested,
    read_journal,
    recover_sessions,
)
from repro.serve.session import SessionSpec
from repro.serve.shard import ShardPool
from repro.telemetry import ALERT_DEADLINE, ALERT_QUEUE_SATURATED, ProbeBoard
from repro.telemetry.flight import merged_chrome_trace, nearest_rank

#: Consecutive rounds with no slot progress before the broker declares
#: the service wedged and stops (shards all dead and not respawning,
#: or a protocol bug).
STALL_ROUNDS = 10

#: Seconds the broker waits for one round of shard replies before it
#: treats the silent shards as dead.
STEP_TIMEOUT_S = 120.0


class SessionEntry:
    """Broker-side record of one admitted session."""

    __slots__ = ("spec", "state", "digest", "counts", "done", "shard",
                 "migrations", "slots_done", "shard_history", "slot_s")

    def __init__(self, spec: SessionSpec, state: Optional[dict] = None):
        self.spec = spec
        self.state = state              # latest resumable state
        self.digest: Optional[str] = None
        self.counts: dict = {}
        self.done = False
        self.shard: Optional[int] = None
        self.migrations = 0
        self.slots_done = 0 if state is None \
            else int(state.get("slot_cursor", 0))
        self.shard_history: list = []
        self.slot_s: list = []


class ServiceResult:
    """What a broker run produced: session fates plus service stats."""

    def __init__(self, *, sessions, stats, alerts, flight_payloads,
                 status):
        self.sessions = sessions
        self.stats = stats
        self.alerts = alerts
        self.flight_payloads = flight_payloads
        self.status = status            # "complete" | "drained" | "stalled"

    @property
    def ok(self) -> bool:
        return self.status in ("complete", "drained")

    def chrome_trace(self) -> Optional[dict]:
        """One merged Chrome trace with a process lane per shard."""
        outcomes = [SimpleNamespace(job_index=0, shard_index=i,
                                    job_id=f"serve-shard-{i}",
                                    telemetry=payload)
                    for i, payload in sorted(self.flight_payloads.items())
                    if payload is not None]
        if not outcomes:
            return None
        return merged_chrome_trace(outcomes)

    def to_dict(self) -> dict:
        return {"status": self.status, "stats": dict(self.stats),
                "alerts": list(self.alerts),
                "sessions": {sid: dict(rec)
                             for sid, rec in self.sessions.items()}}


def service_report(result: ServiceResult) -> str:
    """Render a broker run as Markdown, reliability news first."""
    stats = result.stats
    lines = ["# Serve report", ""]
    lines.append(f"- **status**: {result.status}")
    for key in ("shards", "rounds", "wall_s", "sessions_admitted",
                "sessions_completed", "sessions_per_s", "slots_total",
                "slots_per_s", "p50_slot_s", "p95_slot_s"):
        if stats.get(key) is not None:
            value = stats[key]
            text = f"{value:.4g}" if isinstance(value, float) else value
            lines.append(f"- **{key}**: {text}")
    lines.append("")
    lines.extend(reliability_markdown(stats, result.alerts))

    if result.sessions:
        lines.append(f"## Sessions ({len(result.sessions)})")
        lines.append("")
        lines.append("| session | kind | tenant | slots | done "
                     "| migrations | digest |")
        lines.append("|---|---|---|---|---|---|---|")
        for sid in sorted(result.sessions):
            rec = result.sessions[sid]
            digest = (rec["digest"] or "")[:12]
            lines.append(
                f"| `{sid}` | {rec['kind']} | {rec['tenant']} "
                f"| {rec['slots_done']}/{rec['n_slots']} | {rec['done']} "
                f"| {rec['migrations']} | `{digest}` |")
        lines.append("")
    return "\n".join(lines)


class SessionBroker:
    """Admission control and round-robin scheduling over a shard pool."""

    def __init__(self, n_shards: int = 2, *,
                 max_active: Optional[int] = None,
                 queue_depth: int = 64,
                 tenant_quota: Optional[int] = None,
                 slot_deadline_s: Optional[float] = None,
                 checkpoint_interval: int = 4,
                 journal_path=None,
                 mp_context: Optional[str] = None,
                 flight: bool = False,
                 chaos: Optional[dict] = None,
                 respawn_dead: bool = True,
                 warmup: bool = True):
        self.pool = ShardPool(n_shards, mp_context=mp_context,
                              journal_path=journal_path, flight=flight,
                              chaos=chaos)
        self.journal = ServeJournal(journal_path) \
            if journal_path is not None else None
        self.journal_path = journal_path
        self.max_active = max_active if max_active is not None \
            else 4 * n_shards
        self.queue_depth = queue_depth
        self.tenant_quota = tenant_quota
        self.slot_deadline_s = slot_deadline_s
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.respawn_dead = respawn_dead
        self.warmup = warmup

        self.probes = ProbeBoard(keep_samples=0)
        self.books = Reliability()
        self.entries: dict = {}
        self.queue: deque = deque()
        self.shed: list = []
        self._warmed: dict = {}         # shard index -> set of kinds
        self._slot_s: list = []         # every slot time so far, sorted
        self._rounds = 0

    def _emit(self, event: str, **fields) -> None:
        """Fold one lifecycle record into the live books and journal it
        (when the broker has a journal)."""
        rec = self.journal.emit(event, **fields) if self.journal \
            else {"event": event, **fields}
        self.books.add(rec)

    def _alert(self, kind: str, source: str, *, value: float,
               message: str, once: bool = True) -> None:
        """Raise a watchdog alert and record it as an ``alert`` event."""
        if self.probes.alert(kind, source, value=value, message=message,
                             once=once) is not None:
            self._emit("alert", kind=kind, source=source, value=value,
                       message=message)

    # -- admission -----------------------------------------------------------

    def _tenant_load(self, tenant: str) -> int:
        return sum(1 for e in self.entries.values()
                   if e.spec.tenant == tenant and not e.done)

    def submit(self, spec: SessionSpec,
               state: Optional[dict] = None) -> bool:
        """Admit a session to the queue, or shed it.

        Shedding happens when the bounded queue is full or the tenant
        is over quota; both are journaled, counted, and the queue-full
        case raises the :data:`ALERT_QUEUE_SATURATED` watchdog alert.
        """
        if spec.session_id in self.entries:
            raise ValueError(f"duplicate session id {spec.session_id!r}")
        reason = None
        if len(self.queue) >= self.queue_depth:
            reason = f"queue full ({self.queue_depth})"
            self._alert(
                ALERT_QUEUE_SATURATED, "serve.admission_queue",
                value=len(self.queue),
                message=f"admission queue saturated at "
                        f"{len(self.queue)} pending sessions")
        elif self.tenant_quota is not None \
                and self._tenant_load(spec.tenant) >= self.tenant_quota:
            reason = f"tenant {spec.tenant!r} over quota " \
                     f"({self.tenant_quota})"
        if reason is not None:
            self.shed.append({"session_id": spec.session_id,
                              "tenant": spec.tenant, "reason": reason})
            self._emit("session_shed", session_id=spec.session_id,
                       tenant=spec.tenant, reason=reason)
            return False
        self.entries[spec.session_id] = SessionEntry(spec, state)
        self.queue.append(spec.session_id)
        self._emit("session_admitted", session_id=spec.session_id,
                   tenant=spec.tenant, spec=spec.to_dict(),
                   resumed=state is not None)
        return True

    # -- placement & rounds --------------------------------------------------

    def _active(self) -> int:
        return sum(1 for e in self.entries.values()
                   if e.shard is not None and not e.done)

    def _pick_shard(self):
        alive = self.pool.alive_shards()
        if not alive:
            return None
        return min(alive, key=lambda s: (len(s.resident), s.index))

    def _place_queued(self) -> None:
        admits = []
        lost = []
        while self.queue and self._active() < self.max_active:
            shard = self._pick_shard()
            if shard is None:
                break
            sid = self.queue.popleft()
            entry = self.entries[sid]
            warmed = self._warmed.setdefault(shard.index, set())
            warm = self.warmup and entry.spec.kind not in warmed
            if not self.pool.send(shard, ("admit", entry.spec.to_dict(),
                                          entry.state, warm)):
                self.queue.appendleft(sid)
                lost.append((shard, "pipe closed"))
                continue
            warmed.add(entry.spec.kind)
            entry.shard = shard.index
            entry.shard_history.append(shard.index)
            shard.resident.add(sid)
            admits.append((shard, sid))
            self._emit("session_placed", session_id=sid,
                       shard=shard.index, slot_cursor=entry.slots_done)
        if admits:
            replies, dead = self.pool.collect(STEP_TIMEOUT_S)
            for shard, reply in replies:
                if reply[0] != "ok":
                    raise RuntimeError(
                        f"admit failed on shard {shard.index}: {reply[1]}")
            lost += dead
        self._handle_dead(lost)

    def _handle_dead(self, dead) -> None:
        """Migrate every session resident on a dead shard."""
        for shard, reason in dead:
            self._emit("shard_dead", shard=shard.index, reason=reason,
                       resident=sorted(shard.resident))
            for sid in sorted(shard.resident):
                entry = self.entries[sid]
                if entry.done:
                    continue
                entry.shard = None
                entry.migrations += 1
                self.queue.appendleft(sid)
                self._emit("session_migrated", session_id=sid,
                           from_shard=shard.index, reason=reason,
                           slot_cursor=entry.slots_done)
            shard.resident = set()
            if self.respawn_dead:
                self.pool.respawn(shard)
                self._emit("shard_start", shard=shard.index, respawn=True)

    def _step_round(self) -> int:
        """Advance every resident session one slot; returns how many
        slots actually ran."""
        stepped = []
        lost = []
        for shard in self.pool.alive_shards():
            if not shard.resident:
                continue
            if self.pool.send(shard, ("step",)):
                stepped.append(shard)
            else:
                lost.append((shard, "pipe closed"))
        if not stepped:
            self._handle_dead(lost)
            return 0
        replies, dead = self.pool.collect(STEP_TIMEOUT_S)
        dead = lost + dead
        advanced = 0
        for shard, reply in replies:
            if reply[0] != "ok" or reply[1] != "step":
                self.pool.mark_dead(shard)
                dead.append((shard, f"bad step reply: {reply!r}"))
                continue
            payload = reply[2]
            for slot_s in payload["slot_s"]:
                insort(self._slot_s, slot_s)
                if self.slot_deadline_s is not None \
                        and slot_s > self.slot_deadline_s:
                    self._alert(
                        ALERT_DEADLINE, "serve.slot_s", value=slot_s,
                        message=f"slot ran {slot_s:.4f}s, deadline "
                                f"{self.slot_deadline_s:g}s", once=False)
            for rec in payload["advanced"]:
                advanced += 1
                entry = self.entries[rec["session_id"]]
                entry.state = rec["state"]
                entry.digest = rec["digest"]
                entry.counts = rec["counts"]
                entry.slots_done = rec["slot_cursor"]
                if rec["done"]:
                    entry.done = True
                    entry.shard = None
                    shard.resident.discard(rec["session_id"])
                    self._emit("session_complete",
                               session_id=rec["session_id"],
                               digest=rec["digest"], counts=rec["counts"],
                               shard=shard.index,
                               migrations=entry.migrations)
                elif entry.slots_done % self.checkpoint_interval == 0:
                    self._emit("session_checkpoint",
                               session_id=rec["session_id"],
                               state=rec["state"], shard=shard.index)
        self._handle_dead(dead)
        return advanced

    # -- service loop --------------------------------------------------------

    def run(self, specs=()) -> ServiceResult:
        """Serve until every admitted session completes (or a drain is
        requested / the service stalls); returns the fates."""
        for item in specs:
            if isinstance(item, tuple):
                self.submit(item[0], item[1])
            else:
                self.submit(item)
        self.pool.start()
        for shard in self.pool.shards:
            self._emit("shard_start", shard=shard.index, respawn=False)
        t0 = time.monotonic()
        status = "complete"
        stalled = 0
        try:
            while any(not e.done for e in self.entries.values()):
                if self.journal_path is not None \
                        and drain_requested(self.journal_path):
                    self._drain_service()
                    clear_drain(self.journal_path)
                    status = "drained"
                    break
                self._rounds += 1
                self._place_queued()
                advanced = self._step_round()
                if advanced == 0:
                    stalled += 1
                    if not self.pool.alive_shards() \
                            and not self.respawn_dead:
                        status = "stalled"
                        break
                    if stalled >= STALL_ROUNDS:
                        status = "stalled"
                        break
                else:
                    stalled = 0
                self._emit_progress(t0)
        finally:
            self.pool.stop()
            if self.journal:
                self.journal.close()
        return self._result(time.monotonic() - t0, status)

    def _drain_service(self) -> None:
        """Checkpoint every resident session and release the shards."""
        for shard in self.pool.alive_shards():
            if shard.resident:
                self.pool.send(shard, ("drain_all",))
        replies, dead = self.pool.collect(STEP_TIMEOUT_S)
        for shard, reply in replies:
            if reply[0] != "ok" or reply[1] != "drain_all":
                continue
            for sid, state in reply[2]["states"].items():
                entry = self.entries.get(sid)
                if entry is None:
                    continue
                entry.state = state
                entry.shard = None
                self._emit("session_checkpoint", session_id=sid,
                           state=state, shard=shard.index, drain=True)
            shard.resident = set()

    def _emit_progress(self, t0: float) -> None:
        wall = max(time.monotonic() - t0, 1e-9)
        completed = sum(1 for e in self.entries.values() if e.done)
        slots = len(self._slot_s)
        self._emit(
            "progress", completed=completed, admitted=len(self.entries),
            sessions_per_s=round(completed / wall, 4),
            slots_per_s=round(slots / wall, 4),
            p95_slot_s=nearest_rank(self._slot_s, 95.0))

    # -- results -------------------------------------------------------------

    def _result(self, wall: float, status: str) -> ServiceResult:
        sessions = {}
        for sid, entry in sorted(self.entries.items()):
            sessions[sid] = {
                "kind": entry.spec.kind, "tenant": entry.spec.tenant,
                "n_slots": entry.spec.n_slots,
                "slots_done": entry.slots_done, "done": entry.done,
                "digest": entry.digest, "counts": dict(entry.counts),
                "migrations": entry.migrations,
                "shard_history": list(entry.shard_history),
            }
        completed = sum(1 for rec in sessions.values() if rec["done"])
        stats = {
            "shards": len(self.pool.shards),
            "rounds": self._rounds,
            "wall_s": round(wall, 4),
            "sessions_admitted": len(self.entries),
            "sessions_completed": completed,
            "sessions_per_s": round(completed / max(wall, 1e-9), 4),
            "slots_total": len(self._slot_s),
            "slots_per_s": round(len(self._slot_s) / max(wall, 1e-9), 4),
            "p50_slot_s": nearest_rank(self._slot_s, 50.0),
            "p95_slot_s": nearest_rank(self._slot_s, 95.0),
            **self.books.counts,
        }
        flight_payloads = {s.index: s.flight_payload
                           for s in self.pool.shards}
        return ServiceResult(
            sessions=sessions, stats=stats,
            alerts=[a.to_dict() for a in self.probes.alerts],
            flight_payloads=flight_payloads, status=status)


def resumable_sessions(journal_path) -> list:
    """(spec, state) pairs for a journal's incomplete sessions —
    ready to feed back through :meth:`SessionBroker.run`."""
    fates = recover_sessions(read_journal(journal_path))
    out = []
    for sid in sorted(fates):
        fate = fates[sid]
        if fate["complete"] or fate["spec"] is None:
            continue
        out.append((SessionSpec.from_dict(fate["spec"]), fate["state"]))
    return out

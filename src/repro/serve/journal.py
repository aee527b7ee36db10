"""The session journal: the service's multi-appender lifecycle log.

The broker and every shard worker append structured events to one
:class:`repro.journal.Journal` — admission, assignment, checkpoints,
migrations, completions from the broker; per-step heartbeats from the
shards.  Reading skips torn lines wherever they are (see
:mod:`repro.journal` for the durability guarantee), so every intact
record survives, which is what :func:`recover_sessions` relies on to
rebuild a killed service from its admitted specs and their latest
checkpoints.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.journal import Journal, read_events

ServeJournal = Journal
read_journal = read_events


# -- drain flag ----------------------------------------------------------------------


def drain_flag_path(journal_path) -> str:
    """The conventional drain-request flag next to a journal."""
    return os.fspath(journal_path) + ".drain"


def request_drain(journal_path) -> str:
    """Ask a running broker (polling between rounds) to drain."""
    flag = drain_flag_path(journal_path)
    with open(flag, "w") as fh:
        fh.write(json.dumps({"t": round(time.time(), 3)}) + "\n")
    return flag


def drain_requested(journal_path) -> bool:
    return os.path.exists(drain_flag_path(journal_path))


def clear_drain(journal_path) -> None:
    try:
        os.unlink(drain_flag_path(journal_path))
    except FileNotFoundError:
        pass


# -- recovery ------------------------------------------------------------------------


def recover_sessions(records) -> dict:
    """Rebuild session fates from journal records.

    Returns ``session_id -> {"spec": spec dict, "state": latest
    checkpointed state or None, "complete": bool, "digest": final
    digest when complete}`` for every admitted session.  Feeding the
    incomplete entries back through the broker resumes a killed or
    drained service from its last checkpoints.
    """
    sessions: dict = {}
    for rec in records:
        event = rec.get("event")
        sid = rec.get("session_id")
        if event == "session_admitted" and sid is not None:
            sessions[sid] = {"spec": rec.get("spec"), "state": None,
                             "complete": False, "digest": None}
        elif sid in sessions:
            entry = sessions[sid]
            if event == "session_checkpoint":
                state = rec.get("state")
                prev = entry["state"]
                if state is not None and (
                        prev is None or int(state.get("slot_cursor", 0))
                        >= int(prev.get("slot_cursor", 0))):
                    entry["state"] = state
            elif event == "session_complete":
                entry["complete"] = True
                entry["digest"] = rec.get("digest")
    return sessions


def journal_summary(records) -> dict:
    """Service-level facts folded from a journal (for ``status``)."""
    sessions = recover_sessions(records)
    counts = {"admitted": len(sessions),
              "complete": sum(1 for s in sessions.values()
                              if s["complete"]),
              "checkpointed": sum(1 for s in sessions.values()
                                  if s["state"] is not None
                                  and not s["complete"]),
              "shed": 0, "migrations": 0, "shard_deaths": 0,
              "shard_steps": 0, "alerts": 0}
    shards = set()
    last_progress: Optional[dict] = None
    for rec in records:
        event = rec.get("event")
        if event == "session_shed":
            counts["shed"] += 1
        elif event == "session_migrated":
            counts["migrations"] += 1
        elif event == "shard_dead":
            counts["shard_deaths"] += 1
        elif event == "shard_step":
            counts["shard_steps"] += 1
            if rec.get("shard") is not None:
                shards.add(rec["shard"])
        elif event == "shard_start" and rec.get("shard") is not None:
            shards.add(rec["shard"])
        elif event == "alert":
            counts["alerts"] += 1
        elif event == "progress":
            last_progress = rec
    out = dict(counts)
    out["active"] = counts["admitted"] - counts["complete"]
    out["shards_seen"] = len(shards)
    if last_progress is not None:
        out["progress"] = {k: last_progress.get(k) for k in
                           ("completed", "admitted", "sessions_per_s",
                            "slots_per_s", "p95_slot_s")}
    return out

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

from repro.journal import Journal, read_events, summarize

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
    """Service-level facts folded from a journal (for ``status``): the
    session fates plus the :func:`repro.journal.summarize` schema."""
    sessions = recover_sessions(records).values()
    admitted = len(sessions)
    complete = sum(1 for s in sessions if s["complete"])
    return {"admitted": admitted, "complete": complete,
            "checkpointed": sum(1 for s in sessions
                                if s["state"] is not None
                                and not s["complete"]),
            "active": admitted - complete,
            **summarize(records)}

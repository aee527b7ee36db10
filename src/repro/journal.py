"""The one append-only JSONL log behind every durable record.

Three logs share it: the campaign checkpoint
(:mod:`repro.campaign.checkpoint`), the campaign lifecycle event log
(:mod:`repro.campaign.status`) and the serve session journal
(:mod:`repro.serve.journal`).  Each keeps only its own record rules on
top; writing, tail repair and torn-line tolerance live here.

Durability guarantee
--------------------
Every record is flushed and nothing is fsynced.  Data survives kill -9
of any writer, but not an OS crash or power loss.  A torn line
anywhere is skipped, and a newly opened writer closes an unterminated
tail before its first append.

A record is one ``\\n``-terminated line written with a single
``write()`` in append (``O_APPEND``) mode and flushed, so concurrent
appenders — the serve broker and its shards share one journal —
interleave at line granularity.  Only a writer killed mid-write leaves
a torn line; the next writer to open the log starts its first record
with ``\\n``, so the torn bytes end as one undecodable line instead of
swallowing that record.

Reliability summary
-------------------
:func:`summarize` folds the lifecycle events of either log — campaign
events or the serve journal — into one reliability schema (the
:data:`COUNTERS`, per-shard wall-clock and the last progress record);
:func:`reliability_markdown` and :func:`reliability_text` are its only
renderings.  The serve broker feeds its live stats through the same
:class:`Reliability` fold, so what it reports and what ``status``
reads back from the journal agree by construction.
"""

from __future__ import annotations

import json
import os
import time

from repro.telemetry import ALERT_DEADLINE
from repro.telemetry.flight import _exact_percentile


class Journal:
    """Append-only JSONL log, safe for concurrent appenders."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = None

    def append(self, rec: dict) -> dict:
        """Write ``rec`` as one line (keys sorted) and flush it."""
        line = json.dumps(rec, sort_keys=True) + "\n"
        if self._fh is None:
            if _unterminated(self.path):
                line = "\n" + line
            self._fh = open(self.path, "a")
        self._fh.write(line)
        self._fh.flush()
        return rec

    def emit(self, event: str, **fields) -> dict:
        """Append a wall-clock-stamped lifecycle event record."""
        return self.append({"t": round(time.time(), 3), "event": event,
                            **fields})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _unterminated(path: str) -> bool:
    """True when ``path`` ends in a torn line (no final ``\\n``)."""
    try:
        with open(path, "rb") as fh:
            if fh.seek(0, os.SEEK_END) == 0:
                return False
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except FileNotFoundError:
        return False


def read_records(path) -> list:
    """Every intact record of a log, in file order (``[]`` if absent).

    A record is a line holding one JSON object.  Any other line — torn
    by a killed writer, blank, or not an object — is skipped wherever
    it is, because later lines from other appenders are still intact.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return []
    records = []
    with fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:          # torn line or undecodable bytes
                continue
            if isinstance(rec, dict):
                records.append(rec)
    return records


def read_events(path) -> list:
    """The :meth:`Journal.emit` records of a log."""
    return [rec for rec in read_records(path) if "event" in rec]


# -- the reliability fold ------------------------------------------------------


def _timed_out(rec: dict) -> bool:
    return "timeout" in (rec.get("reason") or "")


#: Lifecycle event -> the ``(counter, condition)`` pairs it bumps; a
#: None condition counts every record of the event.
_RULES = {
    "shard_finish": (("shards_finished", None),),
    "shard_retry": (("retries", None), ("timeouts", _timed_out)),
    "shard_degraded": (("degraded_shards", None), ("timeouts", _timed_out)),
    "shard_skip": (("skipped_shards", None),),
    "session_shed": (("shed_sessions", None),),
    "session_migrated": (("migrations", None),),
    "shard_dead": (("shard_deaths", None),),
    "shard_start": (("shard_respawns", lambda rec: rec.get("respawn")),),
    "alert": (("alerts", None),
              ("deadline_misses",
               lambda rec: rec.get("kind") == ALERT_DEADLINE)),
}

#: The counters of a reliability summary, in rendering order.
COUNTERS = ("shards_finished", "retries", "timeouts", "degraded_shards",
            "skipped_shards", "shed_sessions", "migrations",
            "shard_deaths", "shard_respawns", "deadline_misses", "alerts")


class Reliability:
    """A running fold of lifecycle records into reliability facts."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.durations: list = []
        self.progress = None

    def add(self, rec: dict) -> None:
        event = rec.get("event")
        for key, condition in _RULES.get(event, ()):
            if condition is None or condition(rec):
                self.counts[key] += 1
        if event == "shard_finish" and rec.get("duration_s") is not None:
            self.durations.append(rec["duration_s"])
        elif event == "progress":
            self.progress = rec

    def summary(self) -> dict:
        """The :data:`COUNTERS`, ``wall_clock_s`` (count/mean/p50/p95/max
        of successful shards' ``duration_s``) and, once one was seen,
        ``progress`` (the last progress record's fields)."""
        d = self.durations
        out = dict(self.counts)
        out["wall_clock_s"] = {
            "count": len(d),
            "mean": sum(d) / len(d) if d else None,
            "p50": _exact_percentile(d, 50),
            "p95": _exact_percentile(d, 95),
            "max": max(d) if d else None,
        }
        if self.progress is not None:
            out["progress"] = {k: v for k, v in self.progress.items()
                               if k not in ("event", "t")}
        return out


def summarize(records) -> dict:
    """Fold lifecycle event records into the reliability schema."""
    books = Reliability()
    for rec in records:
        books.add(rec)
    return books.summary()


def _pairs(fields: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in fields.items() if v is not None)


def reliability_markdown(rel: dict, alerts=()) -> list:
    """The ``## Reliability`` Markdown section of a :func:`summarize`
    dict, with a table of the alert dicts when there are any."""
    lines = ["## Reliability", ""]
    lines += [f"- **{key}**: {rel.get(key, 0)}" for key in COUNTERS]
    wc = rel.get("wall_clock_s") or {}
    if wc.get("count"):
        lines.append(
            f"- **wall_clock_s**: mean {wc['mean']:.3f}s, "
            f"p50 {wc['p50']:.3f}s, p95 {wc['p95']:.3f}s, "
            f"max {wc['max']:.3f}s over {wc['count']} shards")
    if rel.get("progress"):
        lines.append(f"- **progress**: {_pairs(rel['progress'])}")
    fb = rel.get("fastpath_fallbacks")
    if fb is not None:
        lines.append(f"- **fastpath_fallbacks**: {fb.get('total', 0)} "
                     f"{_pairs(fb.get('by_code', {}))}".rstrip())
    if alerts:
        lines += ["", "| kind | probe | value | message |",
                  "|---|---|---|---|"]
        lines += [f"| {a['kind']} | `{a['probe']}` | {a['value']:g} "
                  f"| {a['message']} |" for a in alerts]
    lines.append("")
    return lines


def reliability_text(rel: dict) -> list:
    """The plain-text lines of a :func:`summarize` dict, for ``status``."""
    lines = [f"{key:>16}: {rel.get(key, 0)}" for key in COUNTERS]
    wc = rel.get("wall_clock_s") or {}
    if wc.get("count"):
        lines.append(f"{'wall_clock_s':>16}: p50 {wc['p50']:.3f}s  "
                     f"p95 {wc['p95']:.3f}s  max {wc['max']:.3f}s")
    if rel.get("progress"):
        lines.append(f"{'progress':>16}: {_pairs(rel['progress'])}")
    return lines

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
"""

from __future__ import annotations

import json
import os
import time


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

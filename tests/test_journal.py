"""Crash consistency of the one append-only JSONL log (`repro.journal`).

The campaign checkpoint, the campaign event log and the serve journal
are all this log, so its guarantees are tested once, here: truncation
at every byte offset, an append after each truncation, torn and
undecodable lines anywhere, concurrent appenders and a kill -9 in the
middle of a flood of appends.
"""

import json
import os
import signal
import time

import pytest

from repro.journal import Journal, read_events, read_records
from repro.pool import resolve_mp_context

FIXTURE = [
    {"type": "header", "version": 1, "fingerprint": "ab12"},
    {"event": "shard_step", "shard": 0, "step": 0},
    {"type": "shard", "job_id": "j", "ok": True, "result": {"n": [1, 2]}},
    {"event": "session_complete", "session_id": "a", "digest": "d"},
]


def _write(path, records) -> bytes:
    with Journal(path) as log:
        for rec in records:
            log.append(rec)
    return path.read_bytes()


class TestTruncation:
    def test_every_byte_offset(self, tmp_path):
        """Cut the log at every offset: the reader returns exactly the
        records whose JSON is whole, and a record appended after the
        cut reads back after them."""
        path = tmp_path / "log.jsonl"
        data = _write(path, FIXTURE)
        ends, pos = [], 0
        for line in data.split(b"\n")[:-1]:
            ends.append(pos + len(line))
            pos += len(line) + 1
        assert pos == len(data)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            intact = [r for r, end in zip(FIXTURE, ends) if cut >= end]
            assert read_records(path) == intact, cut
            after = {"event": "after", "cut": cut}
            with Journal(path) as log:
                log.append(after)
            assert read_records(path) == intact + [after], cut

    def test_same_records_same_bytes(self, tmp_path):
        one = _write(tmp_path / "a.jsonl", FIXTURE)
        two = _write(tmp_path / "b.jsonl", FIXTURE)
        assert one == two
        assert one == b"".join(json.dumps(r, sort_keys=True).encode()
                               + b"\n" for r in FIXTURE)


#: (raw bytes already on disk, events appended afterwards, the events
#: read back).  The first four come from the serve journal's and the
#: campaign event log's own torn-line histories.
TORN_CASES = {
    # a writer killed mid-write; the next appender's record must not
    # merge into the torn line
    "torn_line_mid_file": (
        b'{"event": "session_admitted", "session_id": "a"}\n'
        b'{"event": "shard_st',
        ["shard_step", "session_complete"],
        ["session_admitted", "shard_step", "session_complete"]),
    "truncated_tail": (
        b'{"event": "shard_step", "step": 0}\n'
        b'{"event": "shard_step", "step": 1}\n'
        b'{"event": "shard_step", "sha',
        [], ["shard_step", "shard_step"]),
    "non_event_lines": (
        b'[1, 2, 3]\n\n{"type": "header"}\n{"event": "shard_step"}\n',
        [], ["shard_step"]),
    "event_log_torn_tail": (
        b'{"event": "campaign_start", "t": 1}\n{"eve',
        [], ["campaign_start"]),
    "undecodable_bytes": (
        b'{"event": "campaign_start"}\n\xff\xfe\x00garbage\n'
        b'{"event": "progress"}\n',
        ["campaign_end"], ["campaign_start", "progress", "campaign_end"]),
}


class TestTornLines:
    @pytest.mark.parametrize("case", sorted(TORN_CASES))
    def test_torn_lines_are_skipped(self, tmp_path, case):
        raw, appended, expected = TORN_CASES[case]
        path = tmp_path / "log.jsonl"
        path.write_bytes(raw)
        with Journal(path) as log:
            for event in appended:
                log.emit(event)
        assert [r["event"] for r in read_events(path)] == expected


def _append_many(path, writer, n):
    with Journal(path) as log:
        for i in range(n):
            log.emit("shard_step", writer=writer, step=i, pad="x" * 512)


def _flood(path, conn):
    log = Journal(path)
    conn.send("go")
    i = 0
    while True:
        log.emit("shard_step", shard=0, step=i, pad="x" * 256)
        i += 1


class TestProcesses:
    def test_concurrent_appenders_lose_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        ctx = resolve_mp_context()
        n = 400
        procs = [ctx.Process(target=_append_many, args=(path, w, n))
                 for w in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive() and p.exitcode == 0
        records = read_events(path)
        assert len(records) == 2 * n
        for w in range(2):
            assert [r["step"] for r in records if r["writer"] == w] \
                == list(range(n))

    def test_kill_9_mid_flood_leaves_readable_log(self, tmp_path):
        """A real SIGKILL while a child floods the log: every record
        before the one in flight is intact, and the next writer's
        record reads back."""
        path = tmp_path / "log.jsonl"
        ctx = resolve_mp_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_flood, args=(path, child))
        proc.start()
        child.close()
        assert parent.poll(30), "writer never started"
        parent.recv()
        time.sleep(0.1)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)
        assert not proc.is_alive()
        with Journal(path) as log:          # the service lives on
            log.emit("session_complete", session_id="z", digest="d")
        records = read_events(path)
        steps = [r["step"] for r in records if r["event"] == "shard_step"]
        assert steps, "no intact records survived"
        assert steps == list(range(len(steps)))
        assert records[-1]["event"] == "session_complete"

"""The serve journal: emit/read round trips, session recovery, the
service summary and the drain flag.  Torn lines and crashes are the
shared log's business (tests/test_journal.py)."""

from repro.serve.journal import (
    ServeJournal,
    clear_drain,
    drain_requested,
    journal_summary,
    read_journal,
    recover_sessions,
    request_drain,
)


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("shard_step", shard=0, sessions=1)
        records = read_journal(path)
        assert [r["event"] for r in records] \
            == ["session_admitted", "shard_step"]
        assert all("t" in r for r in records)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_interleaved_appenders_all_survive(self, tmp_path):
        path = tmp_path / "j.jsonl"
        a, b = ServeJournal(path), ServeJournal(path)
        for i in range(10):
            (a if i % 2 == 0 else b).emit("shard_step", shard=i % 2,
                                          step=i)
        a.close()
        b.close()
        records = read_journal(path)
        assert [r["step"] for r in records] == list(range(10))


class TestRecovery:
    def test_recover_latest_checkpoint_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = {"session_id": "a", "kind": "rake"}
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec=spec)
            journal.emit("session_checkpoint", session_id="a",
                         state={"slot_cursor": 2, "digest": "x"})
            journal.emit("session_checkpoint", session_id="a",
                         state={"slot_cursor": 4, "digest": "y"})
            journal.emit("session_admitted", session_id="b", spec=spec)
        fates = recover_sessions(read_journal(path))
        assert fates["a"]["state"]["slot_cursor"] == 4
        assert not fates["a"]["complete"]
        assert fates["b"]["state"] is None

    def test_complete_session_recorded_with_digest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("session_complete", session_id="a",
                         digest="abc123")
        fates = recover_sessions(read_journal(path))
        assert fates["a"]["complete"]
        assert fates["a"]["digest"] == "abc123"

    def test_summary_counts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("session_admitted", session_id="b", spec={})
            journal.emit("session_shed", session_id="c", reason="full")
            journal.emit("shard_dead", shard=0, reason="EOF")
            journal.emit("session_migrated", session_id="a",
                         from_shard=0)
            journal.emit("session_complete", session_id="a", digest="d")
            journal.emit("progress", completed=1, admitted=2,
                         sessions_per_s=1.5, slots_per_s=6.0,
                         p95_slot_s=0.1)
        summary = journal_summary(read_journal(path))
        assert summary["admitted"] == 2
        assert summary["complete"] == 1
        assert summary["active"] == 1
        assert summary["shed_sessions"] == 1
        assert summary["migrations"] == 1
        assert summary["shard_deaths"] == 1
        assert summary["progress"]["sessions_per_s"] == 1.5


class TestDrainFlag:
    def test_request_poll_clear(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert not drain_requested(journal)
        request_drain(journal)
        assert drain_requested(journal)
        clear_drain(journal)
        assert not drain_requested(journal)
        clear_drain(journal)                    # idempotent

"""The session broker: admission, scheduling, chaos and the CLI.

The load-bearing test is chaos bit-exactness: kill a shard
mid-traffic, let the broker migrate its sessions, and demand every
final digest match an undisturbed control run — the serve layer's
equivalent of the campaign's kill-and-resume byte-equality contract.
"""

import json
import random
from bisect import insort

import pytest

from repro.serve import (
    SessionBroker,
    SessionSpec,
    read_journal,
    recover_sessions,
    request_drain,
    resumable_sessions,
    service_report,
)
from repro.journal import COUNTERS, summarize
from repro.serve.cli import main as serve_main
from repro.serve import broker as broker_mod
from repro.telemetry import ALERT_DEADLINE, ALERT_QUEUE_SATURATED
from repro.telemetry.flight import _exact_percentile, nearest_rank


def specs(n=4, n_slots=3, seed0=50, tenant="t"):
    return [SessionSpec(session_id=f"s{i}",
                        kind="rake" if i % 2 == 0 else "ofdm",
                        tenant=tenant, n_slots=n_slots, seed=seed0 + i)
            for i in range(n)]


def events(path, name):
    return [r for r in read_journal(path) if r["event"] == name]


class TestService:
    def test_mixed_fleet_completes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        result = SessionBroker(2, journal_path=journal).run(specs())
        assert result.status == "complete"
        assert all(rec["done"] for rec in result.sessions.values())
        assert result.stats["sessions_completed"] == 4
        assert result.stats["slots_total"] == 12
        assert result.stats["p95_slot_s"] > 0
        assert len(events(journal, "session_complete")) == 4
        assert events(journal, "progress")

    def test_service_is_deterministic(self):
        a = SessionBroker(2).run(specs())
        b = SessionBroker(2).run(specs())
        assert {s: r["digest"] for s, r in a.sessions.items()} \
            == {s: r["digest"] for s, r in b.sessions.items()}

    def test_session_reports_and_markdown(self):
        result = SessionBroker(1).run(specs(2))
        text = service_report(result)
        assert "## Reliability" in text
        assert "**migrations**: 0" in text


class TestAdmission:
    def test_queue_saturation_sheds_and_alerts(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        broker = SessionBroker(1, queue_depth=2, journal_path=journal)
        admitted = [broker.submit(s) for s in specs(5, n_slots=2)]
        assert admitted == [True, True, False, False, False]
        assert len(broker.shed) == 3
        assert any(a.kind == ALERT_QUEUE_SATURATED
                   for a in broker.probes.alerts)
        result = broker.run()
        assert result.stats["shed_sessions"] == 3
        assert result.stats["sessions_completed"] == 2
        assert any(a["kind"] == ALERT_QUEUE_SATURATED
                   for a in result.alerts)
        shed = events(journal, "session_shed")
        assert len(shed) == 3 and "queue full" in shed[0]["reason"]
        assert "**shed_sessions**: 3" in service_report(result)

    def test_tenant_quota(self):
        broker = SessionBroker(1, tenant_quota=1)
        fleet = specs(2, tenant="bulk")
        assert broker.submit(fleet[0])
        assert not broker.submit(fleet[1])
        assert "over quota" in broker.shed[0]["reason"]
        assert broker.submit(SessionSpec(session_id="other",
                                         kind="rake", tenant="vip",
                                         n_slots=2, seed=1))

    def test_duplicate_session_id_rejected(self):
        broker = SessionBroker(1)
        broker.submit(specs(1)[0])
        with pytest.raises(ValueError):
            broker.submit(specs(1)[0])


class TestDeadlines:
    def test_slot_deadline_miss_raises_alert(self, tmp_path):
        result = SessionBroker(1, slot_deadline_s=1e-9).run(specs(1))
        assert result.stats["deadline_misses"] > 0
        assert any(a["kind"] == ALERT_DEADLINE for a in result.alerts)
        text = service_report(result)
        assert "deadline_overrun" in text
        assert "**deadline_misses**" in text


class TestChaos:
    def test_killed_shard_migrates_bit_exact(self, tmp_path):
        """Shard 0 dies mid-traffic; its sessions finish elsewhere
        with digests identical to an undisturbed control run."""
        journal = tmp_path / "chaos.jsonl"
        control = SessionBroker(2).run(specs(4, n_slots=4))
        chaos = SessionBroker(
            2, chaos={"kill_shard": 0, "after_steps": 2},
            journal_path=journal).run(specs(4, n_slots=4))
        assert chaos.status == "complete"
        assert chaos.stats["shard_deaths"] == 1
        assert chaos.stats["migrations"] >= 1
        assert chaos.stats["shard_respawns"] == 1
        for sid, rec in control.sessions.items():
            assert chaos.sessions[sid]["done"]
            assert chaos.sessions[sid]["digest"] == rec["digest"]
        assert events(journal, "shard_dead")
        migrated = events(journal, "session_migrated")
        assert {r["session_id"] for r in migrated} \
            == {sid for sid, rec in chaos.sessions.items()
                if rec["migrations"]}

    def test_shard_lost_on_send_is_counted_and_migrated(self, tmp_path):
        """A pipe that breaks on ``send`` is a shard death like an EOF:
        journaled, counted, and its residents migrate."""
        journal = tmp_path / "j.jsonl"
        broker = SessionBroker(2, journal_path=journal)
        send = broker.pool.send

        def send_fails_once(shard, msg):
            if msg[0] == "step" and shard.index == 0 \
                    and not events(journal, "shard_dead"):
                broker.pool.mark_dead(shard)
                return False
            return send(shard, msg)

        broker.pool.send = send_fails_once
        result = broker.run(specs(4, n_slots=3))
        assert result.status == "complete"
        assert result.stats["shard_deaths"] == 1
        assert result.stats["migrations"] >= 1
        assert summarize(read_journal(journal))["shard_deaths"] == 1

    def test_dead_shard_without_respawn_stalls_single_shard(self):
        result = SessionBroker(
            1, chaos={"kill_shard": 0, "after_steps": 1},
            respawn_dead=False).run(specs(2, n_slots=3))
        assert result.status == "stalled"
        assert not all(r["done"] for r in result.sessions.values())


class TestDrainResume:
    def test_drain_midrun_then_resume_bit_exact(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        control = SessionBroker(1).run(specs(2, n_slots=4))

        broker = SessionBroker(1, journal_path=journal,
                               checkpoint_interval=1)
        orig_step = broker._step_round
        rounds = []

        def step_then_drain():
            n = orig_step()
            if not rounds:
                request_drain(journal)
                rounds.append(1)
            return n

        broker._step_round = step_then_drain
        partial = broker.run(specs(2, n_slots=4))
        assert partial.status == "drained"
        assert not all(r["done"] for r in partial.sessions.values())

        pairs = resumable_sessions(journal)
        assert pairs and all(state is not None for _s, state in pairs)
        resumed = SessionBroker(1).run(pairs)
        assert resumed.status == "complete"
        for spec, _state in pairs:
            assert resumed.sessions[spec.session_id]["digest"] \
                == control.sessions[spec.session_id]["digest"]

    def test_journal_recovery_matches_service_view(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        result = SessionBroker(1, journal_path=journal).run(specs(2))
        fates = recover_sessions(read_journal(journal))
        for sid, rec in result.sessions.items():
            assert fates[sid]["complete"]
            assert fates[sid]["digest"] == rec["digest"]


class TestBooks:
    """The broker's live stats and a fold of its journal are one set of
    books: every reliability counter agrees, alerts included."""

    @pytest.mark.parametrize("make, fleet", [
        (lambda j: SessionBroker(2, journal_path=j), specs()),
        (lambda j: SessionBroker(1, queue_depth=1, journal_path=j),
         specs(3)),
        (lambda j: SessionBroker(1, slot_deadline_s=1e-9, journal_path=j),
         specs(2)),
        (lambda j: SessionBroker(
            2, chaos={"kill_shard": 0, "after_steps": 2}, journal_path=j),
         specs(4, n_slots=4)),
    ], ids=["plain", "queue-saturated", "deadline-missing", "chaos"])
    def test_live_stats_equal_journal_fold(self, tmp_path, make, fleet):
        journal = tmp_path / "j.jsonl"
        result = make(journal).run(fleet)
        offline = summarize(read_journal(journal))
        assert {k: result.stats[k] for k in COUNTERS} \
            == {k: offline[k] for k in COUNTERS}
        assert result.stats["alerts"] == len(result.alerts)

    def test_status_reports_alerts_and_deadline_misses(self, tmp_path,
                                                       capsys):
        journal = str(tmp_path / "j.jsonl")
        fleet = [SessionSpec(session_id=f"r{i}", kind="rake", tenant="t",
                             n_slots=2, seed=70 + i) for i in range(3)]
        result = SessionBroker(1, queue_depth=1, slot_deadline_s=1e-9,
                               journal_path=journal).run(fleet)
        assert len(result.alerts) == 3
        assert result.stats["deadline_misses"] == 2
        capsys.readouterr()
        assert serve_main(["status", "--journal", journal, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["alerts"] == 3
        assert summary["deadline_misses"] == 2
        assert summary["shed_sessions"] == 2


class TestSlotPercentiles:
    def test_sorted_insert_gives_the_exact_percentile(self):
        rng = random.Random(7)
        # rounded, so ties occur
        samples = [round(rng.expovariate(40.0), 3) for _ in range(300)]
        kept = []
        for k, sample in enumerate(samples, 1):
            insort(kept, sample)
            for q in (0.0, 50.0, 95.0, 100.0):
                assert nearest_rank(kept, q) \
                    == _exact_percentile(samples[:k], q)
        assert nearest_rank([], 95.0) is None

    def test_progress_and_stats_read_every_slot_so_far(self, monkeypatch,
                                                       tmp_path):
        """Each progress record and the final stats give the exact
        percentile of every slot time the broker has seen."""
        seen = []
        checked = []

        def recording(ordered, slot_s):
            seen.append(slot_s)
            insort(ordered, slot_s)

        emit = SessionBroker._emit

        def checking(self, event, **fields):
            if event == "progress":
                checked.append(fields["p95_slot_s"]
                               == _exact_percentile(seen, 95.0))
            emit(self, event, **fields)

        monkeypatch.setattr(broker_mod, "insort", recording)
        monkeypatch.setattr(SessionBroker, "_emit", checking)
        result = SessionBroker(1, journal_path=tmp_path / "j.jsonl").run(
            specs(2, n_slots=4))
        assert len(seen) == 8
        assert checked and all(checked)
        assert result.stats["p50_slot_s"] == _exact_percentile(seen, 50.0)
        assert result.stats["p95_slot_s"] == _exact_percentile(seen, 95.0)


class TestFlight:
    def test_chrome_trace_has_a_lane_per_shard(self):
        result = SessionBroker(2, flight=True).run(specs(2, n_slots=2))
        trace = result.chrome_trace()
        assert trace is not None
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert len(pids) >= 2


class TestCli:
    def test_run_status_drain(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        rc = serve_main(["run", "--shards", "1", "--rake", "1",
                         "--ofdm", "1", "--slots", "2",
                         "--journal", journal,
                         "--report", str(tmp_path / "r.md"),
                         "--json", str(tmp_path / "r.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve complete: 2/2" in out
        report = (tmp_path / "r.md").read_text()
        assert "## Reliability" in report
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["status"] == "complete"

        assert serve_main(["status", "--journal", journal]) == 0
        assert "complete: 2" in capsys.readouterr().out

        assert serve_main(["drain", "--journal", journal]) == 0
        assert (tmp_path / "j.jsonl.drain").exists()

    def test_status_json_and_missing_journal(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert serve_main(["status", "--journal", missing]) == 1
        journal = str(tmp_path / "j.jsonl")
        serve_main(["run", "--shards", "1", "--rake", "1", "--slots",
                    "2", "--journal", journal])
        capsys.readouterr()
        assert serve_main(["status", "--journal", journal,
                           "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["admitted"] == 1

    def test_run_requires_work(self, capsys):
        assert serve_main(["run", "--shards", "1"]) == 2

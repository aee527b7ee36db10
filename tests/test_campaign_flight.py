"""Flight recorder: shard telemetry capture, checkpoint compatibility,
deterministic campaign-wide merge, lifecycle event log and status."""

import json

import pytest

from repro.campaign import CampaignSpec, ShardOutcome, run_campaign
from repro.campaign.report import results_markdown
from repro.campaign.runners import run_shard
from repro.campaign.sharding import build_shards
from repro.campaign.status import (
    events_path_for,
    status_summary,
    status_text,
)
from repro.journal import read_events, summarize
from repro.telemetry import flight


def _spec(seed=5, shards=3):
    return CampaignSpec.from_dict(
        {"name": "flight", "master_seed": seed,
         "sweeps": [{"kind": "wcdma_dpch", "base": {"n_slots": 6},
                     "axes": {"snr_db": [3, 6]}, "shards": shards}]})


def _chaos_spec(seed=11):
    return CampaignSpec.from_dict(
        {"name": "flight-chaos", "master_seed": seed,
         "jobs": [{"job_id": "chaos", "kind": "chaos",
                   "params": {"n_chips": 16, "transient": 0.5},
                   "shards": 2}]})


def _bytes(run) -> str:
    return json.dumps(run.results, sort_keys=True)


def _trace_bytes(run) -> str:
    return json.dumps(run.merged_trace(), sort_keys=True)


class TestShardCapture:
    def test_run_shard_attaches_telemetry(self):
        task = build_shards(_spec(), telemetry=True)[0]
        result = run_shard(task)
        tel = flight.ShardTelemetry.from_dict(result["telemetry"])
        assert tel.events                   # slot spans + counter samples
        assert tel.counters["wcdma.n_slots"] == 6
        assert "wcdma.link.slot_ber" in tel.probes

    def test_capture_is_seed_deterministic(self):
        task = build_shards(_spec(), telemetry=True)[0]
        a = run_shard(task)["telemetry"]
        b = run_shard(task)["telemetry"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_flight_off_leaves_payload_unchanged(self):
        task = build_shards(_spec())[0]
        assert "telemetry" not in run_shard(task)

    def test_event_cap_counts_drops(self):
        task = build_shards(_chaos_spec(), telemetry=True,
                            max_events=4)[0]
        tel = flight.ShardTelemetry.from_dict(run_shard(task)["telemetry"])
        assert len(tel.events) == 4
        assert tel.dropped_events > 0

    def test_outcome_round_trips_telemetry(self):
        o = ShardOutcome(job_id="j", job_index=0, shard_index=1, ok=True,
                         result={"counts": {}}, attempts=1,
                         telemetry={"version": 1, "events": []})
        d = o.to_dict()
        assert d["telemetry"] == {"version": 1, "events": []}
        assert ShardOutcome.from_dict(d).telemetry == o.telemetry

    def test_outcome_without_telemetry_omits_field(self):
        o = ShardOutcome(job_id="j", job_index=0, shard_index=0, ok=True,
                         result={"counts": {}}, attempts=1)
        assert "telemetry" not in o.to_dict()


class TestCheckpointCompatibility:
    def test_resume_byte_identical_with_telemetry(self, tmp_path):
        """Kill-and-resume with the flight recorder armed yields results
        byte-identical to an uninterrupted flight-on run, and the
        resumed shards keep their recorded telemetry."""
        ck = tmp_path / "ck.jsonl"
        full = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                            flight_recorder=True)
        assert full.complete
        assert all(o.telemetry for o in full.outcomes)

        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:4]) + '\n{"type": "shard", "jo')
        (tmp_path / "ck.jsonl.events.jsonl").unlink()

        resumed = run_campaign(_spec(), workers=2, checkpoint_path=ck,
                               flight_recorder=True)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 3
        assert _bytes(resumed) == _bytes(full)
        assert all(o.telemetry for o in resumed.outcomes)
        assert _trace_bytes(resumed) == _trace_bytes(full)

    def test_old_format_checkpoint_resumes_cleanly(self, tmp_path):
        """A checkpoint written without the telemetry field (pre-flight
        format) resumes under a flight-on run: old shards load with
        ``telemetry=None``, new shards capture it."""
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                             max_shards=2)       # flight off: old format
        assert not first.complete
        for rec in ck.read_text().splitlines():
            assert "telemetry" not in json.loads(rec)

        resumed = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                               flight_recorder=True)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 2
        plain = run_campaign(_spec(), workers=1)
        assert _bytes(resumed) == _bytes(plain)
        with_tel = [o for o in resumed.outcomes if o.telemetry]
        assert len(with_tel) == len(resumed.outcomes) - 2

    def test_flight_flag_does_not_move_fingerprint(self, tmp_path):
        """Telemetry capture is an execution option: a flight-on resume
        accepts a flight-off checkpoint (same fingerprint)."""
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(), workers=1, checkpoint_path=ck)
        resumed = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                               flight_recorder=True)
        assert resumed.complete
        assert resumed.stats["executed_shards"] == 0


class TestMergedTrace:
    def test_per_shard_lanes_and_metadata(self):
        run = run_campaign(_spec(), workers=1, flight_recorder=True)
        trace = run.merged_trace()
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == set(range(1, len(run.outcomes) + 1))
        names = sorted(e["args"]["name"] for e in trace["traceEvents"]
                       if e.get("name") == "process_name")
        assert names == sorted(f"{o.job_id} [shard {o.shard_index}]"
                               for o in run.outcomes)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_merge_deterministic_across_worker_counts(self):
        runs = [run_campaign(_spec(), workers=w, flight_recorder=True)
                for w in (1, 2, 4)]
        blobs = {_trace_bytes(r) for r in runs}
        assert len(blobs) == 1
        assert len({_bytes(r) for r in runs}) == 1

    def test_write_merged_trace(self, tmp_path):
        run = run_campaign(_spec(shards=1), workers=1,
                           flight_recorder=True)
        path = tmp_path / "merged.json"
        obj = run.write_merged_trace(path)
        assert json.loads(path.read_text()) == obj

    def test_shards_without_telemetry_are_skipped(self):
        run = run_campaign(_spec(shards=1), workers=1)
        assert run.merged_trace()["traceEvents"] == []
        rollup = run.telemetry_rollups()
        assert rollup == {"metrics": {}, "probes": {}}


class TestRollups:
    def test_counter_rollup_sums_across_shards(self):
        run = run_campaign(_spec(), workers=2, flight_recorder=True)
        metrics = run.telemetry_rollups()["metrics"]
        slots = metrics["wcdma.n_slots"]
        assert slots["type"] == "counter"
        assert slots["total"] == 6 * len(run.outcomes)
        assert slots["per_shard_mean"] == pytest.approx(6.0)

    def test_probe_rollup_weighted_mean(self):
        run = run_campaign(_spec(), workers=1, flight_recorder=True)
        probes = run.telemetry_rollups()["probes"]
        ber = probes["wcdma.link.slot_ber"]
        assert ber["count"] == 6 * len(run.outcomes)
        assert ber["min"] <= ber["mean"] <= ber["max"]

    def test_chaos_shards_carry_sim_counters(self):
        """Array-backed shards roll up simulator and scheduler metrics
        (the per-kernel observability the serving layer needs)."""
        run = run_campaign(_chaos_spec(), workers=1, flight_recorder=True)
        metrics = run.telemetry_rollups()["metrics"]
        assert metrics["sim.firings"]["total"] > 0
        assert metrics["scheduler.rebuilds"]["total"] >= 1

    def test_histogram_merge_requires_matching_bounds(self):
        a = {"type": "histogram", "bounds": [1, 2], "buckets": [1, 0, 0],
             "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}
        b = dict(a, bounds=[1, 3])
        with pytest.raises(ValueError):
            flight.merge_histogram_dicts([a, b])


class TestEventLog:
    def test_lifecycle_events_written(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(shards=1), workers=1, checkpoint_path=ck)
        events = read_events(events_path_for(ck))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert "shard_start" in kinds and "shard_finish" in kinds
        assert "progress" in kinds
        finish = next(e for e in events if e["event"] == "shard_finish")
        assert finish["duration_s"] >= 0
        prog = [e for e in events if e["event"] == "progress"][-1]
        assert prog["done"] == prog["total"] == 2
        assert prog["shards_per_s"] > 0

    def test_retry_and_degrade_events(self, tmp_path):
        spec = CampaignSpec.from_dict(
            {"name": "deg", "master_seed": 1,
             "jobs": [{"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1}]})
        ck = tmp_path / "ck.jsonl"
        run = run_campaign(spec, workers=1, checkpoint_path=ck,
                           retries=1, backoff_s=0.0)
        assert run.stats["failed_shards"] == 1
        events = read_events(events_path_for(ck))
        kinds = [e["event"] for e in events]
        assert "shard_retry" in kinds and "shard_degraded" in kinds
        rel = summarize(events)
        assert rel["retries"] == 1
        assert rel["degraded_shards"] == 1
        assert rel["shards_finished"] == 0

    def test_timeouts_counted_from_reason(self):
        events = [{"event": "shard_retry", "reason": "timeout: 1s"},
                  {"event": "shard_degraded",
                   "reason": "timeout: shard exceeded 1s"}]
        rel = summarize(events)
        assert rel["timeouts"] == 2

    def test_event_log_fold_equals_run_stats(self, tmp_path):
        """Retrying, degrading and early-stop-skipped shards: the fold
        of a fresh campaign's event log agrees with its live stats,
        in-process and in child processes."""
        spec = CampaignSpec.from_dict(
            {"name": "books", "master_seed": 3,
             "jobs": [{"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1},
                      {"job_id": "flaky", "kind": "fault",
                       "params": {"mode": "flaky"}, "shards": 2},
                      {"job_id": "stop", "kind": "wcdma_dpch",
                       "params": {"n_slots": 2, "snr_db": -10},
                       "shards": 4,
                       "early_stop": {"min_error_events": 1}}]})
        for workers in (1, 2):
            ck = tmp_path / f"ck{workers}.jsonl"
            run = run_campaign(spec, workers=workers, checkpoint_path=ck,
                               retries=1, backoff_s=0.0)
            rel = summarize(read_events(events_path_for(ck)))
            assert run.stats["retries"] and run.stats["failed_shards"]
            if workers == 1:
                # in-process, shard 0's error event is recorded before
                # the later shards launch; with child processes they may
                # already be running when it lands
                assert run.stats["skipped_shards"]
            assert run.stats["executed_shards"] \
                + run.stats["skipped_shards"] == spec.total_shards
            assert rel["retries"] == run.stats["retries"]
            assert rel["degraded_shards"] == run.stats["failed_shards"]
            assert rel["skipped_shards"] == run.stats["skipped_shards"]
            assert rel["shards_finished"] + rel["degraded_shards"] \
                == run.stats["executed_shards"]

    def test_no_checkpoint_no_event_log(self, tmp_path):
        run = run_campaign(_spec(shards=1), workers=1)
        assert run.complete
        assert not list(tmp_path.iterdir())


class TestStatus:
    def test_status_summary_with_spec(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        spec = _spec()
        run_campaign(spec, workers=1, checkpoint_path=ck,
                     flight_recorder=True)
        s = status_summary(ck, spec)
        assert s["shards_recorded"] == s["total_shards"] == 6
        assert s["shards_with_telemetry"] == 6
        assert s["complete"] is True
        assert s["fingerprint"] == spec.fingerprint()
        text = status_text(s)
        assert "6/6 shards" in text

    def test_status_summary_without_spec(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(), workers=1, checkpoint_path=ck,
                     max_shards=2)
        s = status_summary(ck)
        assert s["shards_recorded"] == 2
        assert s["total_shards"] == 6       # from the campaign_start event
        assert s["fingerprint"] is not None

    def test_status_of_unfinished_campaign_is_not_complete(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        spec = _spec(shards=2)
        run_campaign(spec, workers=1, checkpoint_path=ck, max_shards=2)
        s = status_summary(ck, spec)
        assert (s["shards_recorded"], s["total_shards"]) == (2, 4)
        assert s["complete"] is False

    def test_status_of_missing_checkpoint(self, tmp_path):
        s = status_summary(tmp_path / "nope.jsonl")
        assert s["shards_recorded"] == 0
        assert s["total_shards"] is None


class TestReliabilityReport:
    def test_report_gains_reliability_section(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        rel = summarize(
            read_events(events_path_for(ck)))
        md = results_markdown(run.results, run.stats, reliability=rel)
        assert "## Reliability" in md
        assert "p95" in md
        assert "**retries**: 0" in md

    def test_report_without_reliability_unchanged(self):
        run = run_campaign(_spec(shards=1), workers=1)
        md = results_markdown(run.results, run.stats)
        assert "## Reliability" not in md

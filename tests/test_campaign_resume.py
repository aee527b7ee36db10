"""Checkpointing: kill-and-resume bit-identity, torn tails and
fingerprint guards."""

import json

import pytest

from repro.campaign import CampaignError, CampaignSpec, run_campaign
from repro.campaign.status import (
    events_path_for,
    status_summary,
)
from repro.journal import read_events, summarize


def _spec(seed=5):
    return CampaignSpec.from_dict(
        {"name": "resume", "master_seed": seed,
         "sweeps": [{"kind": "wcdma_dpch", "base": {"n_slots": 15},
                     "axes": {"snr_db": [3, 6]}, "shards": 3}]})


def _bytes(run) -> str:
    return json.dumps(run.results, sort_keys=True)


def _cut(data: bytes, where: str) -> int:
    """A truncation offset in a finished 6-shard checkpoint."""
    lines = data.split(b"\n")
    boundary = sum(len(line) + 1 for line in lines[:4])  # header + 3
    return {"inside_header": len(lines[0]) // 2,
            "inside_shard_line": boundary + len(lines[4]) // 2,
            "line_boundary": boundary}[where]


class TestResume:
    def test_killed_run_resumes_bit_identical(self, tmp_path):
        """Truncating the checkpoint mid-campaign (the kill) and
        resuming yields byte-identical aggregates to an uninterrupted
        run — even with a torn partial line at the kill point and a
        different worker count after resume."""
        ck = tmp_path / "ck.jsonl"
        full = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert full.complete

        lines = ck.read_text().splitlines()
        assert len(lines) == 1 + 6          # header + one line per shard
        # keep header + 3 shards, then a torn write from the kill
        ck.write_text("\n".join(lines[:4]) + '\n{"type": "shard", "jo')

        resumed = run_campaign(_spec(), workers=2, checkpoint_path=ck)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 3
        assert resumed.stats["executed_shards"] == 3
        assert _bytes(resumed) == _bytes(full)

    @pytest.mark.parametrize("where", ["inside_header", "inside_shard_line",
                                       "line_boundary"])
    def test_torn_checkpoint_resumes_once(self, tmp_path, where):
        """A resume after a tear anywhere records every shard: the next
        resume runs nothing and status sees the whole campaign."""
        ck = tmp_path / "ck.jsonl"
        full = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        data = ck.read_bytes()
        ck.write_bytes(data[:_cut(data, where)])

        first = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert first.stats["executed_shards"] > 0
        second = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert second.stats["executed_shards"] == 0
        assert second.stats["resumed_shards"] == 6
        for spec in (_spec(), None):
            status = status_summary(ck, spec)
            assert status["shards_recorded"] == 6
            assert status["complete"] is True
        assert _bytes(first) == _bytes(second) == _bytes(full)

    def test_torn_header_then_shards_counts_as_fresh(self, tmp_path):
        """Older versions resumed a torn-header checkpoint by appending
        shard lines with no header, the first merged into the torn
        bytes.  Such a file starts over once, then resumes normally."""
        ck = tmp_path / "ck.jsonl"
        full = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        lines = ck.read_bytes().split(b"\n")
        ck.write_bytes(lines[0][:len(lines[0]) // 2]
                       + b"\n".join(lines[1:]))

        first = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert first.stats["executed_shards"] == 6
        second = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert second.stats["executed_shards"] == 0
        assert status_summary(ck, _spec())["shards_recorded"] == 6
        assert _bytes(first) == _bytes(second) == _bytes(full)

    def test_torn_event_log_counts_later_events(self, tmp_path):
        """A torn line mid-way through the event log hides none of the
        events a resumed run appends after it."""
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(), workers=1, checkpoint_path=ck, max_shards=2)
        events = events_path_for(ck)
        with open(events, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 5)
        run_campaign(_spec(), workers=1, checkpoint_path=ck)
        rel = summarize(read_events(events))
        assert rel["shards_finished"] == 6
        assert rel["progress"]["done"] == 6

    def test_max_shards_interrupt_then_resume(self, tmp_path):
        """--max-shards style interruption: the first call stops after
        its budget with an incomplete aggregate; resume finishes and
        matches an uninterrupted run."""
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                             max_shards=2)
        assert not first.complete
        assert first.stats["executed_shards"] == 2

        resumed = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 2
        uninterrupted = run_campaign(_spec(), workers=1)
        assert _bytes(resumed) == _bytes(uninterrupted)

    def test_partial_aggregate_uses_contiguous_prefix_only(self, tmp_path):
        """An interrupted run's aggregate only folds the contiguous
        shard prefix of each job, so partial numbers never disagree
        with the final ones."""
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                             max_shards=4)
        full = run_campaign(_spec(), workers=1)
        jobs = {j["job_id"]: j for j in first.results["jobs"]}
        for job in full.results["jobs"]:
            partial = jobs[job["job_id"]]
            n = partial["shards_included"]
            assert n <= job["shards_included"]
            if n and partial["counts"]:
                # included counts are a prefix sum of the full run's
                assert partial["counts"]["bit_errors"] \
                    <= job["counts"]["bit_errors"]

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(), workers=1, checkpoint_path=ck)
        size = ck.stat().st_size
        again = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert again.stats["resumed_shards"] == 6
        assert again.complete
        assert ck.stat().st_size == size    # nothing appended

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(seed=5), workers=1, checkpoint_path=ck)
        with pytest.raises(CampaignError, match="fingerprint"):
            run_campaign(_spec(seed=6), workers=1, checkpoint_path=ck)

    def test_non_checkpoint_file_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text('{"hello": "world"}\n')
        with pytest.raises(CampaignError, match="not a campaign"):
            run_campaign(_spec(), workers=1, checkpoint_path=ck)

    def test_failed_shards_are_not_resumed(self, tmp_path):
        """A shard that exhausted its retries is recorded; resume does
        not retry it (the spec would have to change to rerun it)."""
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 1,
             "jobs": [{"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1}]})
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(spec, workers=1, retries=0,
                             backoff_s=0.0, checkpoint_path=ck)
        assert first.stats["failed_shards"] == 1
        again = run_campaign(spec, workers=1, retries=0,
                             backoff_s=0.0, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert again.stats["resumed_shards"] == 1

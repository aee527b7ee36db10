"""Worker pool fault tolerance and serial/parallel equivalence."""

import json

import pytest

from repro.campaign import CampaignSpec, run_campaign


def _results_bytes(run) -> str:
    return json.dumps(run.results, sort_keys=True)


class TestFaultTolerance:
    def test_raise_exhausts_retries_then_degrades(self):
        """A shard that always raises is retried, then recorded as
        failed — the campaign still completes and aggregates."""
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 1,
             "jobs": [{"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1},
                      {"job_id": "good", "kind": "fault",
                       "params": {"mode": "ok"}, "shards": 2}]})
        run = run_campaign(spec, workers=2, retries=2, backoff_s=0.01)
        assert run.complete
        assert run.stats["failed_shards"] == 1
        assert run.stats["retries"] == 2
        bad = next(o for o in run.outcomes if o.job_id == "bad")
        assert not bad.ok and bad.attempts == 3
        assert "injected fault" in bad.error
        job = next(j for j in run.results["jobs"]
                   if j["job_id"] == "bad")
        assert job["shards_failed"] == 1 and job["complete"]
        good = next(j for j in run.results["jobs"]
                    if j["job_id"] == "good")
        assert good["counts"]["works"] == 2

    def test_flaky_succeeds_on_retry_with_backoff(self):
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 2,
             "jobs": [{"job_id": "flaky", "kind": "fault",
                       "params": {"mode": "flaky", "fail_attempts": 2},
                       "shards": 1}]})
        run = run_campaign(spec, workers=2, retries=3, backoff_s=0.01)
        o = run.outcomes[0]
        assert o.ok and o.attempts == 3
        assert run.stats["retries"] == 2
        assert run.stats["failed_shards"] == 0

    def test_hung_worker_times_out_and_degrades(self):
        """A worker sleeping past its deadline is terminated; the
        shard fails after its retries without stalling the run."""
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 3,
             "jobs": [{"job_id": "hang", "kind": "fault",
                       "params": {"mode": "hang", "sleep_s": 60},
                       "timeout_s": 0.3, "shards": 1},
                      {"job_id": "good", "kind": "fault",
                       "params": {"mode": "ok"}, "shards": 1}]})
        run = run_campaign(spec, workers=2, retries=1, backoff_s=0.01)
        assert run.stats["elapsed_s"] < 30
        hang = next(o for o in run.outcomes if o.job_id == "hang")
        assert not hang.ok and "timeout" in hang.error
        assert hang.attempts == 2
        good = next(o for o in run.outcomes if o.job_id == "good")
        assert good.ok

    def test_serial_executor_retries_too(self):
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 4,
             "jobs": [{"job_id": "flaky", "kind": "fault",
                       "params": {"mode": "flaky", "fail_attempts": 1},
                       "shards": 2}]})
        run = run_campaign(spec, workers=1, retries=1, backoff_s=0.0)
        assert all(o.ok and o.attempts == 2 for o in run.outcomes)
        assert run.stats["retries"] == 2

    def test_progress_and_metrics_counters(self):
        seen = []
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 5,
             "jobs": [{"job_id": "good", "kind": "fault",
                       "params": {"mode": "ok"}, "shards": 3},
                      {"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1}]})
        run = run_campaign(spec, workers=1, retries=0,
                           progress=lambda o, done, total:
                           seen.append((o.job_id, done, total)))
        assert run.stats["executed_shards"] == 4
        assert run.stats["failed_shards"] == 1
        assert run.stats["skipped_shards"] == 0
        assert run.stats["retries"] == 0
        assert [d for _j, d, _t in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _j, _d, t in seen)


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_matches_serial_byte_for_byte(self, workers):
        """The acceptance bar: identical aggregated results for any
        worker count under the same master seed."""
        spec = CampaignSpec.from_dict(
            {"name": "eq", "master_seed": 99,
             "sweeps": [{"kind": "wcdma_dpch",
                         "base": {"slot_format": 8, "n_slots": 15},
                         "axes": {"snr_db": [1, 5]}, "shards": 3}],
             "jobs": [{"job_id": "ofdm", "kind": "ofdm_link",
                       "params": {"rate_mbps": 12, "snr_db": 9,
                                  "n_packets": 1, "length_bytes": 20},
                       "shards": 2}]})
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=workers)
        assert _results_bytes(serial) == _results_bytes(pooled)

    def test_early_stop_is_worker_count_invariant(self):
        """Early stopping follows the deterministic prefix rule, so a
        pool that opportunistically ran extra in-flight shards still
        aggregates identically to the serial loop."""
        spec = CampaignSpec.from_dict(
            {"name": "es", "master_seed": 17,
             "sweeps": [{"kind": "wcdma_dpch",
                         "base": {"n_slots": 15, "snr_db": -2.0},
                         "axes": {"doppler_hz": [5, 100]},
                         "shards": 8,
                         "early_stop": {"min_error_events": 40}}]})
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=3)
        assert _results_bytes(serial) == _results_bytes(pooled)
        jobs = serial.results["jobs"]
        assert all(j["early_stopped"] for j in jobs)
        assert all(j["shards_included"] < 8 for j in jobs)
        # the serial loop actually saved the excess shards
        assert serial.stats["skipped_shards"] > 0

    def test_rake_scenarios_runner_counts(self):
        spec = CampaignSpec.from_dict(
            {"name": "rk", "master_seed": 0,
             "jobs": [{"job_id": "rake", "kind": "rake_scenarios",
                       "params": {"max_basestations": 6,
                                  "max_channels": 2,
                                  "max_multipaths": 3}, "shards": 1}]})
        run = run_campaign(spec)
        job = run.results["jobs"][0]
        # Table 1 grid: 36 combinations, 31 within the 69.12 MHz clock
        assert job["counts"]["scenarios"] == 36
        assert job["counts"]["feasible"] == 31
        assert job["counts"]["full_clock"] == 2
        assert job["info"]["table1_rows"]

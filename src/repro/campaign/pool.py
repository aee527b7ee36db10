"""Campaign execution: one fault-tolerant executor, one set of books.

``run_campaign`` drives a campaign to its aggregate through the shared
:class:`repro.pool.RetryingTaskPool`, which owns every skip, budget,
retry and backoff decision for any worker count:

* ``workers <= 1`` — shards run in this process.  No child processes
  and no timeouts; an exception fails the attempt.
* ``workers >= 2`` — one process per shard, at most ``workers`` alive
  at a time.  A worker that *raises* reports the error over its pipe;
  one that *dies* (segfault, ``os._exit``) is detected by the closed
  pipe; one that *hangs* past its deadline is terminated.

A failed attempt is retried with exponential backoff up to
``retries`` times without holding back later shards; a shard that
exhausts its retries is recorded as **failed** and the campaign
carries on — graceful degradation, never a fatal run.

This module is bookkeeping only: :class:`_RunState` answers the
pool's hooks by recording outcomes (checkpoint, progress) and folding
every lifecycle record into one :class:`repro.journal.Reliability`,
from which ``CampaignRun.stats`` and the event log's ``campaign_end``
both read their counts.

Determinism: shard seeds depend only on ``(master_seed, flat
index)`` and the aggregate folds shards in index order with the
deterministic early-stop prefix rule, so any worker count and any
resume produce byte-identical results
(:mod:`repro.campaign.aggregate`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.aggregate import aggregate, included_prefix
from repro.campaign.checkpoint import open_checkpoint
from repro.campaign.runners import run_shard
from repro.campaign.sharding import ShardTask, build_shards
from repro.campaign.spec import CampaignSpec
from repro.campaign.status import events_path_for
from repro.journal import Journal, Reliability
from repro.pool import RetryingTaskPool
from repro.telemetry import flight


@dataclass
class ShardOutcome:
    """The recorded fate of one shard.

    ``telemetry`` is the optional flight-recorder payload
    (:class:`repro.telemetry.flight.ShardTelemetry` as a dict).  It is
    serialized only when present, so checkpoints written without it
    are byte-identical to the pre-flight format, and old checkpoints
    load unchanged.  The aggregate never reads it.
    """

    job_id: str
    job_index: int
    shard_index: int
    ok: bool
    result: Optional[dict] = None   # {"counts": ..., "info": ...} when ok
    error: Optional[str] = None
    attempts: int = 0
    skipped: bool = False           # early stop cancelled it pre-launch
    telemetry: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {"job_id": self.job_id, "job_index": self.job_index,
             "shard_index": self.shard_index, "ok": self.ok,
             "result": self.result, "error": self.error,
             "attempts": self.attempts, "skipped": self.skipped}
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShardOutcome":
        return cls(job_id=d["job_id"], job_index=int(d["job_index"]),
                   shard_index=int(d["shard_index"]), ok=bool(d["ok"]),
                   result=d.get("result"), error=d.get("error"),
                   attempts=int(d.get("attempts", 0)),
                   skipped=bool(d.get("skipped", False)),
                   telemetry=d.get("telemetry"))


@dataclass
class CampaignRun:
    """What ``run_campaign`` returns."""

    spec: CampaignSpec
    outcomes: list                  # ShardOutcome, shard order
    results: dict                   # deterministic aggregate
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.results.get("complete"))

    # -- flight-recorder views (empty/None without telemetry capture) --------

    def telemetry_rollups(self) -> dict:
        """Campaign-wide metric and probe rollups of the shards'
        flight-recorder payloads (see :mod:`repro.telemetry.flight`)."""
        return {"metrics": flight.metric_rollups(self.outcomes),
                "probes": flight.probe_rollups(self.outcomes)}

    def merged_trace(self) -> dict:
        """One Chrome trace with a process lane per telemetry shard."""
        return flight.merged_chrome_trace(self.outcomes)

    def write_merged_trace(self, path) -> dict:
        return flight.write_merged_trace(path, self.outcomes)


def run_campaign(spec: CampaignSpec, *, workers: int = 1,
                 retries: int = 2, backoff_s: float = 0.25,
                 timeout_s: Optional[float] = None,
                 checkpoint_path=None, max_shards: Optional[int] = None,
                 progress=None, flight_recorder: bool = False,
                 max_trace_events: int = flight.DEFAULT_MAX_EVENTS) -> CampaignRun:
    """Run (or resume) a campaign and aggregate its results.

    ``timeout_s`` is the per-shard wall-clock limit (``workers >= 2``
    only; a job's own ``timeout_s`` takes precedence).  ``max_shards``
    bounds how many shards this call executes — the run exits
    incomplete with a valid checkpoint, which is how CI exercises
    resume.  ``progress(outcome, done, total)`` is called after every
    recorded shard.

    ``flight_recorder`` arms per-shard telemetry capture
    (:mod:`repro.telemetry.flight`): every shard records up to
    ``max_trace_events`` tracer events plus metric and probe dumps
    onto ``ShardOutcome.telemetry``.  With a checkpoint, the lifecycle
    event log is written next to it
    (:func:`repro.campaign.status.events_path_for`); it carries
    wall-clock facts — shard durations, retries, timeouts,
    ETA/throughput — and is the one intentionally nondeterministic
    artifact.
    """
    started = time.perf_counter()
    tasks = build_shards(spec, telemetry=flight_recorder,
                         max_events=max_trace_events)
    ck, done_records = open_checkpoint(checkpoint_path, spec)
    outcomes = {}
    for rec in done_records:
        o = ShardOutcome.from_dict(rec)
        outcomes[(o.job_index, o.shard_index)] = o
    resumed = len(outcomes)
    pending = [t for t in tasks if t.key not in outcomes]

    events = Journal(events_path_for(checkpoint_path)) \
        if checkpoint_path is not None else None
    state = _RunState(spec, outcomes, ck, progress, len(tasks), events)
    state._emit("campaign_start", campaign=spec.name,
                fingerprint=spec.fingerprint(), total_shards=len(tasks),
                workers=workers, resumed_shards=resumed,
                flight_recorder=flight_recorder)
    try:
        RetryingTaskPool(run_shard, workers=workers, retries=retries,
                         backoff_s=backoff_s, timeout_s=timeout_s).run(
            pending, budget=max_shards, should_skip=state.should_skip,
            on_skip=state.on_skip, on_start=state.on_start,
            on_success=state.on_success, on_retry=state.on_retry,
            on_exhausted=state.on_exhausted)
    finally:
        elapsed = time.perf_counter() - started
        counts = state.books.counts
        state._emit("campaign_end", recorded=len(outcomes),
                    failed=counts["degraded_shards"],
                    retries=counts["retries"], elapsed_s=round(elapsed, 3))
        if events is not None:
            events.close()
        if ck is not None:
            ck.close()

    stats = {"workers": workers, "total_shards": len(tasks),
             "resumed_shards": resumed,
             "executed_shards": state.executed(),
             "failed_shards": counts["degraded_shards"],
             "skipped_shards": counts["skipped_shards"],
             "retries": counts["retries"], "elapsed_s": elapsed}
    ordered = [outcomes[t.key] for t in tasks if t.key in outcomes]
    return CampaignRun(spec=spec, outcomes=ordered,
                       results=aggregate(spec, ordered), stats=stats)


# -- bookkeeping behind the pool's hooks ---------------------------------------------


#: result-count keys that measure work units for the slots/s throughput
_SLOT_KEYS = ("n_slots", "n_packets", "scenarios", "runs")


def _outcome(task: ShardTask, **fields) -> ShardOutcome:
    return ShardOutcome(job_id=task.job_id, job_index=task.job_index,
                        shard_index=task.shard_index, **fields)


class _RunState:
    """Outcome recording and early-stop skips, as
    :class:`repro.pool.RetryingTaskPool` hooks.

    Every lifecycle record goes through :meth:`_emit`, which folds it
    into ``books`` and journals it when there is an event log — so the
    run's stats and the log's fold come from the same records.
    """

    def __init__(self, spec, outcomes, checkpoint, progress, total, events):
        self.spec = spec
        self.outcomes = outcomes
        self.checkpoint = checkpoint
        self.progress = progress
        self.total = total
        self.events = events
        self.books = Reliability()
        self.started = time.monotonic()
        self.slots = 0          # work units this run, for slots/s

    def _emit(self, event: str, **fields) -> None:
        rec = self.events.emit(event, **fields) if self.events is not None \
            else {"event": event, **fields}
        self.books.add(rec)

    def executed(self) -> int:
        """Shards this run finished or degraded (resumed ones excluded)."""
        counts = self.books.counts
        return counts["shards_finished"] + counts["degraded_shards"]

    def _record(self, outcome: ShardOutcome, event: str, **fields) -> None:
        self.outcomes[(outcome.job_index, outcome.shard_index)] = outcome
        if self.checkpoint is not None:
            self.checkpoint.append(outcome)
        self._emit(event, job_id=outcome.job_id,
                   shard_index=outcome.shard_index, **fields)
        if self.events is not None:     # progress is for the log only
            done = len(self.outcomes)
            elapsed = max(time.monotonic() - self.started, 1e-9)
            rate = self.executed() / elapsed
            remaining = max(self.total - done, 0)
            self._emit("progress", done=done, total=self.total,
                       shards_per_s=round(rate, 4),
                       slots_per_s=round(self.slots / elapsed, 2),
                       eta_s=round(remaining / rate, 1) if rate > 0
                       else None)
        if self.progress is not None:
            self.progress(outcome, len(self.outcomes), self.total)

    # -- the pool's hooks ------------------------------------------------------------

    def on_start(self, task: ShardTask, attempt: int) -> None:
        self._emit("shard_start", job_id=task.job_id,
                   shard_index=task.shard_index, attempt=attempt)

    def on_success(self, task: ShardTask, attempt: int, payload: dict,
                   duration_s: float) -> None:
        counts = payload.get("counts") or {}
        self.slots += sum(int(counts.get(k, 0)) for k in _SLOT_KEYS)
        self._record(_outcome(task, ok=True, result=payload,
                              attempts=attempt + 1,
                              telemetry=payload.pop("telemetry", None)),
                     "shard_finish", attempts=attempt + 1,
                     duration_s=round(duration_s, 4))

    def on_retry(self, task: ShardTask, attempt: int, reason: str) -> None:
        self._emit("shard_retry", job_id=task.job_id,
                   shard_index=task.shard_index, reason=reason)

    def on_exhausted(self, task: ShardTask, attempts: int,
                     reason: str) -> None:
        self._record(_outcome(task, ok=False, error=reason,
                              attempts=attempts),
                     "shard_degraded", attempts=attempts, reason=reason)

    def should_skip(self, task: ShardTask) -> bool:
        """True when the deterministic early-stop prefix of the task's
        job already ends before this shard."""
        job = self.spec.jobs[task.job_index]
        if job.early_stop is None:
            return False
        recorded = {s: o for (j, s), o in self.outcomes.items()
                    if j == task.job_index and not o.skipped}
        prefix, stopped = included_prefix(job, recorded)
        return stopped and task.shard_index >= prefix

    def on_skip(self, task: ShardTask) -> None:
        self._record(_outcome(task, ok=False, skipped=True,
                              error="early stop"), "shard_skip")

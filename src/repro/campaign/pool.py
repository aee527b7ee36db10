"""Campaign execution: serial loop or fault-tolerant worker pool.

``run_campaign`` drives a campaign to its aggregate.  Two executors
share all bookkeeping (checkpointing, retries, early stopping,
metrics):

* ``workers <= 1`` — an in-process serial loop, the reference
  executor.  No processes, no timeouts; exceptions are retried with
  the same backoff policy.
* ``workers >= 2`` — a ``multiprocessing`` pool, one process per
  shard, at most ``workers`` alive at a time.  A worker that *raises*
  reports the error over its pipe; one that *dies* (segfault,
  ``os._exit``) is detected by the closed pipe; one that *hangs* past
  its deadline is terminated.  All three fail the attempt, which is
  retried with exponential backoff up to ``retries`` times; a shard
  that exhausts its retries is recorded as **failed** and the campaign
  carries on — graceful degradation, never a fatal run.

Determinism: shard seeds depend only on ``(master_seed, flat
index)`` and the aggregate folds shards in index order with the
deterministic early-stop prefix rule, so the serial loop, any pool
width and any resume produce byte-identical results
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
from repro.journal import Journal
from repro.pool import RetryingTaskPool
from repro.telemetry import flight
from repro.telemetry.metrics import get_metrics


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
                 progress=None, mp_context: Optional[str] = None,
                 flight_recorder: bool = False,
                 max_trace_events: int = flight.DEFAULT_MAX_EVENTS,
                 events_path=None, cache_dir=None) -> CampaignRun:
    """Run (or resume) a campaign and aggregate its results.

    ``timeout_s`` is the per-shard wall-clock limit (pool executor
    only; a job's own ``timeout_s`` takes precedence).  ``max_shards``
    bounds how many shards this call executes — the run exits
    incomplete with a valid checkpoint, which is how CI exercises
    resume.  ``progress(outcome, done, total)`` is called after every
    recorded shard.

    ``flight_recorder`` arms per-shard telemetry capture
    (:mod:`repro.telemetry.flight`): every shard records up to
    ``max_trace_events`` tracer events plus metric and probe dumps
    onto ``ShardOutcome.telemetry``.  The lifecycle event log is
    written to ``events_path`` (default: next to the checkpoint)
    whenever either is given; it carries wall-clock facts — shard
    durations, retries, timeouts, ETA/throughput — and is the one
    intentionally nondeterministic artifact.

    ``cache_dir`` mounts a shared on-disk fastpath compile cache in
    every shard (:mod:`repro.fastpath.cache`): the first worker to
    compile a config's kernels stores the artifact, every later shard
    — in this run or a resume — loads it.  Defaults to
    ``<checkpoint_path>.fpcache`` when a checkpoint is given, so
    resumable campaigns get kernel reuse for free; pass ``""`` to
    disable.  Purely an execution option: results are byte-identical
    with or without it.
    """
    started = time.perf_counter()
    if cache_dir is None and checkpoint_path is not None:
        cache_dir = str(checkpoint_path) + ".fpcache"
    tasks = build_shards(spec, telemetry=flight_recorder,
                         max_events=max_trace_events,
                         cache_dir=cache_dir or None)
    ck, done_records = open_checkpoint(checkpoint_path, spec)
    outcomes = {}
    for rec in done_records:
        o = ShardOutcome.from_dict(rec)
        outcomes[(o.job_index, o.shard_index)] = o
    resumed = len(outcomes)
    pending = [t for t in tasks if t.key not in outcomes]
    stats = {"workers": workers, "total_shards": len(tasks),
             "resumed_shards": resumed, "executed_shards": 0,
             "failed_shards": 0, "skipped_shards": 0, "retries": 0}

    if events_path is None and checkpoint_path is not None:
        events_path = events_path_for(checkpoint_path)
    events = Journal(events_path) if events_path is not None else None
    state = _RunState(spec, outcomes, ck, stats, progress, len(tasks),
                      events)
    if events is not None:
        events.emit("campaign_start", campaign=spec.name,
                    fingerprint=spec.fingerprint(),
                    total_shards=len(tasks), workers=workers,
                    resumed_shards=resumed,
                    flight_recorder=flight_recorder)
    try:
        if workers <= 1:
            _run_serial(state, pending, retries, backoff_s, max_shards)
        else:
            _run_pool(state, pending, workers, retries, backoff_s,
                      timeout_s, max_shards, mp_context)
    finally:
        stats["elapsed_s"] = time.perf_counter() - started
        if events is not None:
            events.emit("campaign_end", recorded=len(outcomes),
                        failed=stats["failed_shards"],
                        retries=stats["retries"],
                        elapsed_s=round(stats["elapsed_s"], 3))
            events.close()
        if ck is not None:
            ck.close()

    ordered = [outcomes[t.key] for t in tasks if t.key in outcomes]
    return CampaignRun(spec=spec, outcomes=ordered,
                       results=aggregate(spec, ordered), stats=stats)


# -- shared bookkeeping --------------------------------------------------------------


#: result-count keys that measure work units for the slots/s throughput
_SLOT_KEYS = ("n_slots", "n_packets", "scenarios", "runs")


class _RunState:
    """Outcome recording shared by both executors."""

    def __init__(self, spec, outcomes, checkpoint, stats, progress, total,
                 events=None):
        self.spec = spec
        self.outcomes = outcomes
        self.checkpoint = checkpoint
        self.stats = stats
        self.progress = progress
        self.total = total
        self.metrics = get_metrics()
        self.events = events
        self.started = time.monotonic()
        self.executed = 0       # shards this run (resumed ones excluded)
        self.slots = 0          # work units this run, for slots/s

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def shard_started(self, task: ShardTask, attempt: int) -> None:
        self._emit("shard_start", job_id=task.job_id,
                   shard_index=task.shard_index, attempt=attempt)

    def _emit_progress(self) -> None:
        if self.events is None:
            return
        done = len(self.outcomes)
        elapsed = max(time.monotonic() - self.started, 1e-9)
        rate = self.executed / elapsed
        remaining = max(self.total - done, 0)
        self._emit("progress", done=done, total=self.total,
                   shards_per_s=round(rate, 4),
                   slots_per_s=round(self.slots / elapsed, 2),
                   eta_s=round(remaining / rate, 1) if rate > 0 else None)

    def record(self, outcome: ShardOutcome,
               duration_s: Optional[float] = None) -> None:
        self.outcomes[(outcome.job_index, outcome.shard_index)] = outcome
        if self.checkpoint is not None:
            self.checkpoint.append(outcome)
        if outcome.skipped:
            self.stats["skipped_shards"] += 1
            self.metrics.counter("campaign.shards_skipped").inc()
            self._emit("shard_skip", job_id=outcome.job_id,
                       shard_index=outcome.shard_index)
        else:
            self.stats["executed_shards"] += 1
            self.executed += 1
            self.metrics.counter("campaign.shards_completed").inc()
            if outcome.ok:
                counts = (outcome.result or {}).get("counts") or {}
                self.slots += sum(int(counts.get(k, 0)) for k in _SLOT_KEYS)
                self._emit("shard_finish", job_id=outcome.job_id,
                           shard_index=outcome.shard_index,
                           attempts=outcome.attempts,
                           duration_s=round(duration_s, 4)
                           if duration_s is not None else None)
            else:
                self.stats["failed_shards"] += 1
                self.metrics.counter("campaign.shards_failed").inc()
                self._emit("shard_degraded", job_id=outcome.job_id,
                           shard_index=outcome.shard_index,
                           attempts=outcome.attempts, reason=outcome.error)
        self._emit_progress()
        if self.progress is not None:
            self.progress(outcome, len(self.outcomes), self.total)

    def note_retry(self, task: Optional[ShardTask] = None,
                   reason: Optional[str] = None) -> None:
        self.stats["retries"] += 1
        self.metrics.counter("campaign.retries").inc()
        if task is not None:
            self._emit("shard_retry", job_id=task.job_id,
                       shard_index=task.shard_index, reason=reason)

    def skippable(self, task: ShardTask) -> bool:
        """True when the deterministic early-stop prefix of the task's
        job already ends before this shard."""
        job = self.spec.jobs[task.job_index]
        if job.early_stop is None:
            return False
        recorded = {s: o for (j, s), o in self.outcomes.items()
                    if j == task.job_index and not o.skipped}
        prefix, stopped = included_prefix(job, recorded)
        return stopped and task.shard_index >= prefix

    def skip(self, task: ShardTask) -> None:
        self.record(ShardOutcome(
            job_id=task.job_id, job_index=task.job_index,
            shard_index=task.shard_index, ok=False, skipped=True,
            error="early stop"))


# -- serial executor -----------------------------------------------------------------


def _run_serial(state: _RunState, pending, retries: int,
                backoff_s: float, max_shards: Optional[int]) -> None:
    executed = 0
    for task in pending:
        if max_shards is not None and executed >= max_shards:
            return
        if state.skippable(task):
            state.skip(task)
            continue
        outcome = None
        duration = None
        for attempt in range(retries + 1):
            if attempt:
                state.note_retry(task, outcome.error)
                time.sleep(backoff_s * 2 ** (attempt - 1))
            state.shard_started(task, attempt)
            t0 = time.monotonic()
            try:
                result = run_shard(task, attempt)
            except Exception as exc:
                outcome = ShardOutcome(
                    job_id=task.job_id, job_index=task.job_index,
                    shard_index=task.shard_index, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempt + 1)
                continue
            duration = time.monotonic() - t0
            outcome = ShardOutcome(
                job_id=task.job_id, job_index=task.job_index,
                shard_index=task.shard_index, ok=True, result=result,
                attempts=attempt + 1,
                telemetry=result.pop("telemetry", None))
            break
        state.record(outcome, duration)
        executed += 1


# -- process-pool executor -----------------------------------------------------------


def _run_pool(state: _RunState, pending, workers: int, retries: int,
              backoff_s: float, timeout_s: Optional[float],
              max_shards: Optional[int], mp_context: Optional[str]) -> None:
    """Campaign adapter over the shared :class:`repro.pool.RetryingTaskPool`:
    the pool owns spawn/EOF-death/timeout-terminate/retry-backoff, this
    function owns campaign semantics (early-stop skips, outcome
    recording, retry stats)."""

    def on_success(task: ShardTask, attempt: int, payload: dict,
                   duration: float) -> None:
        state.record(ShardOutcome(
            job_id=task.job_id, job_index=task.job_index,
            shard_index=task.shard_index, ok=True, result=payload,
            attempts=attempt + 1,
            telemetry=payload.pop("telemetry", None)), duration)

    def on_exhausted(task: ShardTask, attempts: int, reason: str) -> None:
        state.record(ShardOutcome(
            job_id=task.job_id, job_index=task.job_index,
            shard_index=task.shard_index, ok=False, error=reason,
            attempts=attempts))

    pool = RetryingTaskPool(run_shard, workers=workers, retries=retries,
                            backoff_s=backoff_s, timeout_s=timeout_s,
                            mp_context=mp_context, noun="shard")
    pool.run(pending, budget=max_shards,
             should_skip=state.skippable, on_skip=state.skip,
             on_start=state.shard_started, on_success=on_success,
             on_retry=lambda task, attempt, reason:
             state.note_retry(task, reason),
             on_exhausted=on_exhausted)

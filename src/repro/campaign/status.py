"""Live campaign plane: the lifecycle event log and ``status``.

With a checkpoint, a run appends structured lifecycle events (shard
start/finish/retry/timeout/degrade, periodic progress with ETA and
throughput) to a :class:`repro.journal.Journal` next to it.
``repro-campaign status`` reads that log — and the checkpoint — without
touching the running pool, and :func:`reliability_summary` turns it
into the report's reliability section (retries, timeouts, degraded
shards, wall-clock p50/p95).  Wall-clock lives *only* here: the event
log is the one intentionally nondeterministic campaign artifact.
"""

from __future__ import annotations

import os

from repro.campaign.checkpoint import Checkpoint, read_checkpoint
from repro.journal import read_events
from repro.telemetry.flight import _exact_percentile


def events_path_for(checkpoint_path) -> str:
    """The conventional event-log path next to a checkpoint."""
    return os.fspath(checkpoint_path) + ".events.jsonl"


def reliability_summary(events) -> dict:
    """Fold a lifecycle event log into the report's reliability facts.

    Counts retries, timeouts, degraded (retry-exhausted) and skipped
    shards, and summarizes per-shard wall-clock (successful attempts
    only) as count/mean/p50/p95/max.  Throughput and ETA come from the
    latest ``progress`` event, which the pool emits after every
    recorded shard.
    """
    durations = []
    counts = {"shards_finished": 0, "retries": 0, "timeouts": 0,
              "degraded_shards": 0, "skipped_shards": 0}
    progress = None
    for rec in events:
        kind = rec.get("event")
        if kind == "shard_finish":
            counts["shards_finished"] += 1
            if rec.get("duration_s") is not None:
                durations.append(rec["duration_s"])
        elif kind == "shard_retry":
            counts["retries"] += 1
            if "timeout" in (rec.get("reason") or ""):
                counts["timeouts"] += 1
        elif kind == "shard_degraded":
            counts["degraded_shards"] += 1
            if "timeout" in (rec.get("reason") or ""):
                counts["timeouts"] += 1
        elif kind == "shard_skip":
            counts["skipped_shards"] += 1
        elif kind == "progress":
            progress = rec
    out = dict(counts)
    out["wall_clock_s"] = {
        "count": len(durations),
        "mean": sum(durations) / len(durations) if durations else None,
        "p50": _exact_percentile(durations, 50),
        "p95": _exact_percentile(durations, 95),
        "max": max(durations) if durations else None,
    }
    if progress is not None:
        out["progress"] = {k: progress.get(k) for k in
                           ("done", "total", "eta_s", "shards_per_s",
                            "slots_per_s")}
    return out


def status_summary(checkpoint_path, spec=None) -> dict:
    """Snapshot of a (possibly running) campaign from its artifacts.

    Reads the checkpoint and the event log only — never the pool — so
    it is safe to call from another process while the campaign runs.
    ``spec`` (optional) validates the checkpoint's fingerprint and adds
    the total shard count when no ``campaign_start`` event recorded one.
    """
    if spec is not None:
        records = Checkpoint(checkpoint_path, spec).load()
        fingerprint = spec.fingerprint()
    else:
        header, records = read_checkpoint(checkpoint_path)
        fingerprint = header.get("fingerprint") if header else None
    events = read_events(events_path_for(checkpoint_path))
    total = None
    for rec in events:
        if rec.get("event") == "campaign_start":
            total = rec.get("total_shards")
            fingerprint = rec.get("fingerprint", fingerprint)
    if total is None and spec is not None:
        total = spec.total_shards
    done = len(records)
    failed = sum(1 for r in records
                 if not r.get("ok") and not r.get("skipped"))
    skipped = sum(1 for r in records if r.get("skipped"))
    with_telemetry = sum(1 for r in records if r.get("telemetry"))
    return {
        "checkpoint": os.fspath(checkpoint_path),
        "fingerprint": fingerprint,
        "shards_recorded": done,
        "shards_failed": failed,
        "shards_skipped": skipped,
        "shards_with_telemetry": with_telemetry,
        "total_shards": total,
        "complete": (total is not None and done >= total) or None,
        "reliability": reliability_summary(events),
    }


def status_text(summary: dict) -> str:
    """One-screen human rendering of :func:`status_summary`."""
    lines = [f"checkpoint: {summary['checkpoint']}"]
    if summary.get("fingerprint"):
        lines.append(f"fingerprint: {summary['fingerprint']}")
    total = summary.get("total_shards")
    done = summary["shards_recorded"]
    if total:
        pct = 100.0 * done / total
        lines.append(f"progress: {done}/{total} shards ({pct:.0f}%)")
    else:
        lines.append(f"progress: {done} shards recorded")
    lines.append(f"failed: {summary['shards_failed']}  "
                 f"skipped: {summary['shards_skipped']}  "
                 f"telemetry: {summary['shards_with_telemetry']}")
    rel = summary["reliability"]
    lines.append(f"retries: {rel['retries']}  "
                 f"timeouts: {rel['timeouts']}  "
                 f"degraded: {rel['degraded_shards']}")
    wc = rel["wall_clock_s"]
    if wc["count"]:
        lines.append(f"shard wall-clock: p50 {wc['p50']:.3f}s  "
                     f"p95 {wc['p95']:.3f}s  max {wc['max']:.3f}s")
    prog = rel.get("progress")
    if prog and prog.get("shards_per_s") is not None:
        eta = prog.get("eta_s")
        eta_txt = f"  eta {eta:.0f}s" if eta is not None else ""
        slots = prog.get("slots_per_s")
        slots_txt = f"  {slots:.1f} slots/s" if slots else ""
        lines.append(f"throughput: {prog['shards_per_s']:.2f} shards/s"
                     f"{slots_txt}{eta_txt}")
    return "\n".join(lines)

"""Live campaign plane: the lifecycle event log and ``status``.

With a checkpoint, a run appends structured lifecycle events (shard
start/finish/retry/timeout/degrade, periodic progress with ETA and
throughput) to a :class:`repro.journal.Journal` next to it.
``repro-campaign status`` reads that log — and the checkpoint — without
touching the running pool, and :func:`repro.journal.summarize` turns
it into the report's reliability section (retries, timeouts, degraded
shards, wall-clock p50/p95).  Wall-clock lives *only* here: the event
log is the one intentionally nondeterministic campaign artifact.
"""

from __future__ import annotations

import os

from repro.campaign.checkpoint import Checkpoint, read_checkpoint
from repro.journal import read_events, reliability_text, summarize


def events_path_for(checkpoint_path) -> str:
    """The conventional event-log path next to a checkpoint."""
    return os.fspath(checkpoint_path) + ".events.jsonl"


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
        "complete": done >= total if total is not None else None,
        "reliability": summarize(events),
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
    lines.extend(reliability_text(summary["reliability"]))
    return "\n".join(lines)

"""``python -m repro.campaign`` / ``repro-campaign`` — run, resume and
report sharded Monte-Carlo campaigns.

Subcommands::

    run     --spec spec.json [--workers N] [--checkpoint ck.jsonl]
            [--out artifact.json] [--report report.md] [--retries N]
            [--backoff S] [--timeout S] [--max-shards N] [--quiet]
            [--flight] [--trace merged_trace.json]
    resume  (same flags; requires the checkpoint to exist)
    report  --artifact artifact.json [--out report.md]
    status  --checkpoint ck.jsonl [--spec spec.json] [--json]

``--flight`` arms the per-shard flight recorder; ``--trace`` writes
the merged campaign Chrome trace (one process lane per shard).
``status`` reads only the checkpoint and its ``.events.jsonl``
lifecycle log, so it is safe against a live campaign from another
terminal.

Exit codes: 0 — campaign complete; 3 — incomplete (``--max-shards``
budget hit or shards still missing): re-run ``resume`` with the same
spec and checkpoint to continue exactly where it left off.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from repro.campaign.pool import run_campaign
from repro.campaign.report import results_markdown
from repro.campaign.spec import BACKENDS, CampaignError, CampaignSpec
from repro.campaign.status import (
    events_path_for,
    status_summary,
    status_text,
)
from repro.journal import read_events, summarize
from repro.telemetry import flight

EXIT_INCOMPLETE = 3


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", required=True,
                     help="campaign spec JSON (jobs and/or sweeps)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes; 1 = in-process serial")
    sub.add_argument("--checkpoint",
                     help="JSONL checkpoint to append to / resume from")
    sub.add_argument("--out", help="write the JSON artifact here")
    sub.add_argument("--report", help="write the Markdown report here")
    sub.add_argument("--retries", type=int, default=2,
                     help="retry attempts per shard after a failure")
    sub.add_argument("--backoff", type=float, default=0.25,
                     help="base retry backoff in seconds (doubles "
                          "each attempt)")
    sub.add_argument("--timeout", type=float, default=None,
                     help="per-shard timeout in seconds (pool only)")
    sub.add_argument("--max-shards", type=int, default=None,
                     help="execute at most N shards, then exit "
                          "incomplete (checkpoint stays resumable)")
    sub.add_argument("--backend", choices=sorted(BACKENDS), default=None,
                     help="pin every job's simulator backend "
                          "(naive/event/fastpath); changes the campaign "
                          "fingerprint")
    sub.add_argument("--flight", action="store_true",
                     help="arm the per-shard flight recorder (tracer "
                          "spans, metrics and probes ride the checkpoint)")
    sub.add_argument("--max-trace-events", type=int, default=None,
                     help="per-shard trace-event cap for --flight")
    sub.add_argument("--trace",
                     help="write the merged campaign Chrome trace here "
                          "(per-shard lanes; needs --flight telemetry)")
    sub.add_argument("--quiet", action="store_true",
                     help="no per-shard progress lines")


class _Progress:
    """Per-shard progress lines with running throughput and ETA."""

    def __init__(self):
        self.started = time.monotonic()
        self.executed = 0

    def __call__(self, outcome, done: int, total: int) -> None:
        state = "skip" if outcome.skipped else ("ok" if outcome.ok
                                                else "FAIL")
        line = (f"[{done}/{total}] {state:4s} {outcome.job_id} "
                f"shard {outcome.shard_index}")
        if outcome.error and not outcome.skipped:
            line += f" ({outcome.error})"
        if not outcome.skipped:
            self.executed += 1
            rate = self.executed / max(time.monotonic() - self.started,
                                       1e-9)
            eta = (total - done) / rate if rate > 0 else 0.0
            line += f"  [{rate:.2f} shards/s, eta {eta:.0f}s]"
        print(line, flush=True)


def _cmd_run(args, *, resume: bool) -> int:
    try:
        spec = CampaignSpec.load(args.spec)
    except (OSError, json.JSONDecodeError, CampaignError) as exc:
        print(f"error: cannot load spec {args.spec}: {exc}",
              file=sys.stderr)
        return 2
    if args.backend:
        spec = spec.with_backend(args.backend)
    if resume:
        if not args.checkpoint:
            print("error: resume needs --checkpoint", file=sys.stderr)
            return 2
        if not os.path.exists(args.checkpoint):
            print(f"error: checkpoint {args.checkpoint} does not exist; "
                  f"use `run` to start", file=sys.stderr)
            return 2
    extra = {}
    if args.max_trace_events is not None:
        extra["max_trace_events"] = args.max_trace_events
    try:
        run = run_campaign(
            spec, workers=args.workers, retries=args.retries,
            backoff_s=args.backoff, timeout_s=args.timeout,
            checkpoint_path=args.checkpoint, max_shards=args.max_shards,
            progress=None if args.quiet else _Progress(),
            flight_recorder=args.flight,
            **extra)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reliability = None
    if args.checkpoint:
        reliability = summarize(
            read_events(events_path_for(args.checkpoint)))
    if args.flight:
        fallbacks = flight.fallback_rollup(run.outcomes)
        if reliability is None:
            reliability = {}
        reliability["fastpath_fallbacks"] = fallbacks
    if args.trace:
        run.write_merged_trace(args.trace)
    if args.out:
        artifact = {
            "title": f"campaign {spec.name}",
            "spec": spec.to_dict(),
            "results": run.results,
            "meta": {"stats": run.stats,
                     "python": platform.python_version()},
        }
        if args.flight:
            artifact["meta"]["telemetry"] = run.telemetry_rollups()
        if reliability is not None:
            artifact["meta"]["reliability"] = reliability
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(results_markdown(run.results, run.stats,
                                      reliability=reliability))

    done = sum(1 for o in run.outcomes)
    print(f"campaign {spec.name}: {done}/{spec.total_shards} shards "
          f"recorded, {run.stats['failed_shards']} failed, "
          f"{run.stats['retries']} retries, "
          f"{run.stats['elapsed_s']:.2f}s "
          f"({'complete' if run.complete else 'incomplete'})")
    return 0 if run.complete else EXIT_INCOMPLETE


def _cmd_status(args) -> int:
    spec = None
    if args.spec:
        try:
            spec = CampaignSpec.load(args.spec)
        except (OSError, json.JSONDecodeError, CampaignError) as exc:
            print(f"error: cannot load spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        summary = status_summary(args.checkpoint, spec)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(status_text(summary))
    if summary.get("complete"):
        return 0
    return EXIT_INCOMPLETE


def _cmd_report(args) -> int:
    try:
        with open(args.artifact) as fh:
            artifact = json.load(fh)
        results = artifact["results"]
        stats = artifact.get("meta", {}).get("stats")
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot read artifact {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    text = results_markdown(results, stats)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-campaign",
        description="sharded Monte-Carlo campaign runner")
    subs = ap.add_subparsers(dest="command", required=True)
    _add_run_args(subs.add_parser(
        "run", help="run a campaign (resumes a checkpoint if given)"))
    _add_run_args(subs.add_parser(
        "resume", help="continue a checkpointed campaign"))
    rep = subs.add_parser("report",
                          help="render an artifact's Markdown report")
    rep.add_argument("--artifact", required=True)
    rep.add_argument("--out")
    status = subs.add_parser(
        "status", help="snapshot a (running) campaign from its "
                       "checkpoint and event log, without touching "
                       "the pool")
    status.add_argument("--checkpoint", required=True,
                        help="the campaign's JSONL checkpoint path")
    status.add_argument("--spec",
                        help="spec JSON (validates the fingerprint and "
                             "adds the total shard count)")
    status.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    args = ap.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_run(args, resume=args.command == "resume")

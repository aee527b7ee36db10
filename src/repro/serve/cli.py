"""``repro-serve`` — run, inspect and drain the session service.

Subcommands
===========

``run``
    Start a broker over N shards and serve a mix of rake/OFDM
    sessions, either ad hoc (``--rake 4 --ofdm 4``) or from a JSON
    service spec (``--config service.json``, the
    :func:`repro.serve.session.expand_sessions` format).  With
    ``--resume`` the incomplete sessions of an existing journal are
    re-admitted from their last checkpoints first.

``status``
    Fold a journal into service-level facts: the session fates
    (admitted / complete / checkpointed / active) and the reliability
    summary every log shares (:func:`repro.journal.summarize`).  Exit
    0 when the journal is readable, even mid-run — status is a
    read-only observer.

``drain``
    Drop the drain flag next to the journal; the running broker polls
    it between rounds, checkpoints every resident session and exits
    with status ``drained``.  ``repro-serve run --resume`` picks the
    work back up.

Chaos knobs (``--kill-shard`` / ``--kill-after``) arm one shard to
``os._exit(9)`` mid-traffic — the acceptance drill for migration.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.journal import reliability_text
from repro.serve.broker import SessionBroker, service_report
from repro.serve.journal import (
    journal_summary,
    read_journal,
    request_drain,
)
from repro.serve.session import expand_sessions


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="persistent multi-terminal session service")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="serve sessions over a shard pool")
    run.add_argument("--shards", type=int, default=2)
    run.add_argument("--rake", type=int, default=0,
                     help="number of ad-hoc rake sessions")
    run.add_argument("--ofdm", type=int, default=0,
                     help="number of ad-hoc OFDM sessions")
    run.add_argument("--slots", type=int, default=8,
                     help="slots per ad-hoc session")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument("--config", help="JSON service spec "
                     "(sessions/load groups; overrides --rake/--ofdm)")
    run.add_argument("--journal", help="JSONL lifecycle journal path")
    run.add_argument("--resume", action="store_true",
                     help="re-admit the journal's incomplete sessions")
    run.add_argument("--report", help="write the Markdown serve report")
    run.add_argument("--json", dest="json_out",
                     help="write the result dict as JSON")
    run.add_argument("--trace", help="write a merged Chrome trace "
                     "(implies --flight)")
    run.add_argument("--flight", action="store_true",
                     help="record per-shard flight telemetry")
    run.add_argument("--queue-depth", type=int, default=64)
    run.add_argument("--max-active", type=int, default=None)
    run.add_argument("--tenant-quota", type=int, default=None)
    run.add_argument("--deadline", type=float, default=None,
                     help="per-slot deadline in seconds")
    run.add_argument("--checkpoint-interval", type=int, default=4)
    run.add_argument("--mp-context", choices=("fork", "spawn"))
    run.add_argument("--no-respawn", action="store_true",
                     help="do not replace dead shards")
    run.add_argument("--no-warmup", action="store_true",
                     help="skip kernel prefetch on admit")
    run.add_argument("--kill-shard", type=int, default=None,
                     help="chaos: this shard dies mid-traffic")
    run.add_argument("--kill-after", type=int, default=2,
                     help="chaos: steps before the kill")

    status = sub.add_parser("status", help="summarize a journal")
    status.add_argument("--journal", required=True)
    status.add_argument("--json", dest="json_out", action="store_true",
                        help="emit machine-readable JSON")

    drain = sub.add_parser("drain", help="ask a running broker to drain")
    drain.add_argument("--journal", required=True)
    return p


def _specs_from_args(args) -> list:
    if args.config:
        with open(args.config) as fh:
            return expand_sessions(json.load(fh))
    spec = {"master_seed": args.seed, "load": []}
    if args.rake:
        spec["load"].append({"kind": "rake", "count": args.rake,
                             "tenant": "rake", "n_slots": args.slots})
    if args.ofdm:
        spec["load"].append({"kind": "ofdm", "count": args.ofdm,
                             "tenant": "ofdm", "n_slots": args.slots})
    return expand_sessions(spec)


def _cmd_run(args) -> int:
    specs = _specs_from_args(args)
    resumed = []
    if args.resume:
        if not args.journal:
            print("--resume requires --journal", file=sys.stderr)
            return 2
        from repro.serve.broker import resumable_sessions
        resumed = resumable_sessions(args.journal)
        taken = {spec.session_id for spec, _ in resumed}
        specs = [s for s in specs if s.session_id not in taken]
    if not specs and not resumed:
        print("nothing to serve: give --rake/--ofdm/--config or --resume",
              file=sys.stderr)
        return 2

    chaos = None
    if args.kill_shard is not None:
        chaos = {"kill_shard": args.kill_shard,
                 "after_steps": args.kill_after}
    broker = SessionBroker(
        args.shards, max_active=args.max_active,
        queue_depth=args.queue_depth, tenant_quota=args.tenant_quota,
        slot_deadline_s=args.deadline,
        checkpoint_interval=args.checkpoint_interval,
        journal_path=args.journal, mp_context=args.mp_context,
        flight=args.flight or bool(args.trace), chaos=chaos,
        respawn_dead=not args.no_respawn, warmup=not args.no_warmup)
    result = broker.run(list(resumed) + list(specs))

    if args.report:
        with open(args.report, "w") as fh:
            fh.write(service_report(result))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1)
    if args.trace:
        trace = result.chrome_trace()
        if trace is not None:
            with open(args.trace, "w") as fh:
                json.dump(trace, fh)

    stats = result.stats
    done = stats["sessions_completed"]
    print(f"serve {result.status}: {done}/{stats['sessions_admitted']} "
          f"sessions, {stats['sessions_per_s']:.3g}/s, "
          f"p95 slot {stats['p95_slot_s'] or 0:.4f}s, "
          f"{stats['migrations']} migrations, "
          f"{stats['shed_sessions']} shed")
    for a in result.alerts:
        print(f"ALERT {a['kind']}: {a['message']}")
    return 0 if result.ok and done == stats["sessions_admitted"] else 1


def _cmd_status(args) -> int:
    records = read_journal(args.journal)
    if not records:
        print(f"no journal records at {args.journal}", file=sys.stderr)
        return 1
    summary = journal_summary(records)
    if args.json_out:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for key in ("admitted", "complete", "checkpointed", "active"):
        print(f"{key:>16}: {summary[key]}")
    print("\n".join(reliability_text(summary)))
    return 0


def _cmd_drain(args) -> int:
    flag = request_drain(args.journal)
    print(f"drain requested: {flag}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_drain(args)


if __name__ == "__main__":
    sys.exit(main())

"""Campaign reporting: Markdown curve reports and RunReport artifacts.

The Markdown report renders each sweep group as an ASCII curve
(:func:`repro.telemetry.render_bars` over the group's primary metric)
followed by the full per-job table with Wilson 95% intervals;
:func:`to_run_report` wraps the same results in a
:class:`repro.telemetry.RunReport` so campaign artifacts slot into the
existing benchmark/report pipeline (one JSON schema for CI to diff).
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.aggregate import KIND_METRICS
from repro.journal import reliability_markdown
from repro.telemetry import RunReport, render_bars


def _primary_metric(kind: str) -> Optional[str]:
    table = KIND_METRICS.get(kind) or ()
    return table[0][0] if table else None


def _groups(results: dict) -> dict:
    """Jobs grouped by sweep prefix (the ``job_id`` part before
    ``/``), in first-appearance order."""
    groups: dict = {}
    for job in results["jobs"]:
        prefix = job["job_id"].split("/", 1)[0]
        groups.setdefault(prefix, []).append(job)
    return groups


def _point_label(job: dict) -> str:
    parts = job["job_id"].split("/", 1)
    return parts[1] if len(parts) == 2 else parts[0]


def results_markdown(results: dict, stats: Optional[dict] = None,
                     reliability: Optional[dict] = None) -> str:
    """Human-readable curve report of a campaign's aggregate.

    ``reliability`` (optional) is a
    :func:`repro.journal.summarize` fold of the
    campaign's lifecycle event log; when given, the report gains a
    wall-clock reliability section (retries, timeouts, degraded
    shards, per-shard p50/p95).
    """
    lines = [f"# Campaign: {results['campaign']}", ""]
    lines.append(f"- **master_seed**: {results['master_seed']}")
    lines.append(f"- **fingerprint**: `{results['fingerprint']}`")
    lines.append(f"- **complete**: {results['complete']}")
    if stats:
        for key in ("workers", "total_shards", "resumed_shards",
                    "executed_shards", "failed_shards", "skipped_shards",
                    "retries"):
            if key in stats:
                lines.append(f"- **{key}**: {stats[key]}")
        if "elapsed_s" in stats:
            lines.append(f"- **elapsed_s**: {stats['elapsed_s']:.2f}")
    lines.append("")

    if reliability is not None:
        lines.extend(reliability_markdown(reliability))

    # one ASCII curve per sweep group with a primary metric
    for prefix, jobs in _groups(results).items():
        metric = _primary_metric(jobs[0]["kind"])
        if metric is None or len(jobs) < 2:
            continue
        values = {}
        for job in jobs:
            rate = job["metrics"].get(metric, {}).get("rate")
            if rate is not None:
                values[_point_label(job)] = rate
        if not values:
            continue
        lines.append(f"## {prefix}: {metric} curve")
        lines.append("")
        lines.append("```")
        lines.append(render_bars(values, unit=metric))
        lines.append("```")
        lines.append("")

    lines.append(f"## Jobs ({len(results['jobs'])})")
    lines.append("")
    lines.append("| job | kind | shards | failed | stopped "
                 "| metric | rate | 95% CI | events/trials |")
    lines.append("|---|---|---|---|---|---|---|---|---|")
    for job in results["jobs"]:
        base = (f"| `{job['job_id']}` | {job['kind']} "
                f"| {job['shards_included']} | {job['shards_failed']} "
                f"| {'yes' if job['early_stopped'] else ''} ")
        if not job["metrics"]:
            lines.append(base + "| | | | |")
            continue
        first = True
        for name, m in job["metrics"].items():
            prefix_cells = base if first else "| | | | | "
            rate = f"{m['rate']:.3e}" if m["rate"] is not None else "n/a"
            lines.append(
                prefix_cells + f"| {name} | {rate} "
                f"| [{m['ci95_lo']:.3e}, {m['ci95_hi']:.3e}] "
                f"| {m['errors']}/{m['trials']} |")
            first = False
    lines.append("")
    return "\n".join(lines)


def to_run_report(results: dict, stats: Optional[dict] = None) -> RunReport:
    """The campaign aggregate as a :class:`repro.telemetry.RunReport`
    (its JSON form is the pipeline-compatible artifact body)."""
    report = RunReport(
        f"campaign {results['campaign']}",
        meta={"master_seed": results["master_seed"],
              "fingerprint": results["fingerprint"],
              "complete": results["complete"]})
    report.add_section("campaign", results)
    if stats:
        report.add_section("run_stats", stats)
    return report

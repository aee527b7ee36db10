"""Flight recorder: cross-process campaign telemetry.

The PR 1–2 telemetry stack is strictly per-process — a tracer, a
metrics registry and a probe board installed in *this* interpreter.  A
campaign shard runs in its own worker process, so everything it traces
evaporates when the worker exits.  The flight recorder closes that
gap with two cooperating pieces:

* **Shard capture** — :class:`FlightRecorder` installs a bounded
  :class:`CappedTracer`, a fresh metrics registry and a probe board
  around one shard's runner, then folds what they recorded into a
  JSON-serializable :class:`ShardTelemetry` payload.  The payload rides
  back through the existing ``ShardOutcome`` pipe and JSONL checkpoint
  as an *optional* field: checkpoints written without it still load,
  and the aggregate never reads it, so resume stays byte-identical.
  Everything captured is cycle-stamped or count-valued — never wall
  time — so a shard's telemetry is as deterministic as its results.

* **Campaign merge** — :func:`merged_chrome_trace` folds every shard's
  events into one Chrome ``trace_event`` object with one *process lane
  per shard* (``pid`` = flat shard order, ``process_name`` = ``job_id
  [shard k]``), and :func:`metric_rollups` merges the per-shard metric
  dumps campaign-wide: counters sum, gauges keep min/mean/max across
  shards, histograms merge bucket-wise (same bounds) with p50/p95
  recomputed from the merged buckets.  Both folds iterate shards in
  ``(job_index, shard_index)`` order, so the merged artifacts are
  identical for any worker count.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.telemetry.export import chrome_trace
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    set_metrics,
)
from repro.telemetry.probes import ProbeBoard, set_probes
from repro.telemetry.tracer import TraceEvent, Tracer, set_tracer

#: Default cap on recorded trace events per shard.  An array-kernel
#: shard emits a couple of counter samples per cycle; the cap keeps a
#: chaos shard's payload bounded while leaving a link-level shard
#: (probes per slot, spans per run) untouched.
DEFAULT_MAX_EVENTS = 4096

#: Schema version of the ShardTelemetry payload.
TELEMETRY_VERSION = 1


class CappedTracer(Tracer):
    """A tracer that stops recording after ``max_events`` events.

    Events beyond the cap are counted, not kept, so the capture cost
    degrades to one comparison per event and the checkpoint payload
    stays bounded no matter how chatty the instrumented run is.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS, **kwargs):
        super().__init__(**kwargs)
        self.max_events = max_events
        self.dropped = 0

    def _emit(self, event: TraceEvent) -> TraceEvent:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return event
        return super()._emit(event)


def event_to_dict(e: TraceEvent) -> dict:
    """One trace event as a JSON-safe record (inverse of
    :func:`event_from_dict`)."""
    rec = {"name": e.name, "cat": e.cat, "ph": e.ph, "ts": e.ts}
    if e.dur:
        rec["dur"] = e.dur
    if e.args is not None:
        rec["args"] = e.args
    return rec


def event_from_dict(d: dict, seq: int = 0) -> TraceEvent:
    return TraceEvent(d["name"], d.get("cat", ""), d["ph"], d["ts"],
                      d.get("dur", 0.0), d.get("args"), seq)


class ShardTelemetry:
    """What one shard's flight recorder brings home.

    Pure data: ``events`` are trace-event dicts in emission order,
    ``metrics`` is a ``MetricsRegistry.to_dict()`` dump, ``probes`` /
    ``alerts`` come from ``ProbeBoard.to_dict()``.  ``counters`` is a
    convenience view of the scalar counter values (fault and fallback
    counters included) so rollups don't have to dig.
    """

    def __init__(self, *, events=None, dropped_events: int = 0,
                 metrics=None, probes=None, alerts=None):
        self.events = list(events) if events else []
        self.dropped_events = dropped_events
        self.metrics = dict(metrics) if metrics else {}
        self.probes = dict(probes) if probes else {}
        self.alerts = list(alerts) if alerts else []

    @property
    def counters(self) -> dict:
        return {name: rec["value"] for name, rec in self.metrics.items()
                if rec.get("type") == "counter"}

    def to_dict(self) -> dict:
        return {"version": TELEMETRY_VERSION,
                "events": self.events,
                "dropped_events": self.dropped_events,
                "metrics": self.metrics,
                "probes": self.probes,
                "alerts": self.alerts}

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["ShardTelemetry"]:
        if d is None:
            return None
        return cls(events=d.get("events"),
                   dropped_events=int(d.get("dropped_events", 0)),
                   metrics=d.get("metrics"), probes=d.get("probes"),
                   alerts=d.get("alerts"))


class FlightRecorder:
    """Context manager capturing one shard's telemetry.

    Installs a capped tracer, a fresh metrics registry and a probe
    board as the process-wide defaults for the duration of the shard,
    restores the previous ones on exit (the serial executor shares the
    campaign driver's process) and exposes the capture as
    :meth:`payload`.
    """

    def __init__(self, *, max_events: int = DEFAULT_MAX_EVENTS):
        self.tracer = CappedTracer(max_events)
        self.metrics = MetricsRegistry()
        self.probes = ProbeBoard()
        self._prev = None

    def __enter__(self) -> "FlightRecorder":
        self._prev = (set_tracer(self.tracer), set_metrics(self.metrics),
                      set_probes(self.probes))
        return self

    def __exit__(self, *exc) -> None:
        set_tracer(self._prev[0])
        set_metrics(self._prev[1])
        set_probes(self._prev[2])

    def payload(self) -> dict:
        """The capture as a checkpoint-ready ``telemetry`` dict."""
        board = self.probes.to_dict()
        return ShardTelemetry(
            events=[event_to_dict(e) for e in self.tracer.events],
            dropped_events=self.tracer.dropped,
            metrics=self.metrics.to_dict(),
            probes=board["probes"], alerts=board["alerts"]).to_dict()


# -- campaign-level merge ------------------------------------------------------------


def _shard_key(outcome) -> tuple:
    return (outcome.job_index, outcome.shard_index)


def _telemetry_outcomes(outcomes) -> list:
    """Outcomes carrying telemetry, in deterministic shard order."""
    return sorted((o for o in outcomes
                   if getattr(o, "telemetry", None)), key=_shard_key)


def merged_chrome_trace(outcomes) -> dict:
    """One campaign-wide Chrome trace with a process lane per shard.

    ``outcomes`` is any iterable of ``ShardOutcome``-like objects; only
    those with a ``telemetry`` payload contribute.  Shards are laid out
    as Chrome *processes* in ``(job_index, shard_index)`` order —
    stable for any pool width — and each shard's categories become its
    thread lanes, exactly as in the single-process exporter.
    """
    events = []
    for pid, o in enumerate(_telemetry_outcomes(outcomes), start=1):
        telemetry = ShardTelemetry.from_dict(o.telemetry)
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"{o.job_id} [shard {o.shard_index}]"},
        })
        events += chrome_trace([event_from_dict(d, k) for k, d
                                in enumerate(telemetry.events)],
                               pid=pid)["traceEvents"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"timebase": "cycles",
                      "producer": "repro.telemetry.flight"},
    }


def write_merged_trace(path, outcomes) -> dict:
    """Write the merged campaign trace to ``path``; returns the object."""
    obj = merged_chrome_trace(outcomes)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return obj


def merge_histogram_dicts(records) -> dict:
    """Fold ``Histogram.to_dict()`` records with identical bounds into
    one, recomputing p50/p95 from the merged buckets."""
    records = list(records)
    bounds = records[0]["bounds"]
    for r in records[1:]:
        if r["bounds"] != bounds:
            raise ValueError("histogram merge: mismatched bucket bounds")
    merged = Histogram("merged", bounds)
    merged.count = sum(r["count"] for r in records)
    merged.total = sum(r["sum"] for r in records)
    mins = [r["min"] for r in records if r["min"] is not None]
    maxs = [r["max"] for r in records if r["max"] is not None]
    if mins:
        merged.min = min(mins)
    if maxs:
        merged.max = max(maxs)
    for r in records:
        for i, n in enumerate(r["buckets"]):
            merged.buckets[i] += n
    return merged.to_dict()


def metric_rollups(outcomes) -> dict:
    """Campaign-wide merge of every shard's metric dump.

    Returns ``name -> record``: counters get ``{"type": "counter",
    "total", "shards", "per_shard_mean"}`` (the per-shard mean is the
    fallback/fault *rate* view campaign reports want), gauges get
    min/mean/max across shards, histograms merge bucket-wise.  Shards
    fold in index order, so the rollup bytes are worker-count
    independent.
    """
    shards = [ShardTelemetry.from_dict(o.telemetry)
              for o in _telemetry_outcomes(outcomes)]
    n_shards = len(shards)
    by_name: dict = {}
    for t in shards:
        for name, rec in t.metrics.items():
            by_name.setdefault(name, []).append(rec)
    out = {}
    for name in sorted(by_name):
        recs = by_name[name]
        kind = recs[0]["type"]
        if any(r["type"] != kind for r in recs):
            kind = "mixed"
        if kind == "counter":
            total = sum(r["value"] for r in recs)
            out[name] = {"type": "counter", "total": total,
                         "shards": n_shards,
                         "per_shard_mean": total / n_shards}
        elif kind == "gauge":
            vals = [r["value"] for r in recs]
            out[name] = {"type": "gauge", "min": min(vals),
                         "max": max(vals),
                         "mean": sum(vals) / len(vals),
                         "shards": n_shards}
        elif kind == "histogram":
            out[name] = merge_histogram_dicts(recs)
        else:
            out[name] = {"type": "mixed", "records": len(recs)}
    return out


def fallback_rollup(outcomes) -> dict:
    """Campaign-wide fastpath fallback tally from shard telemetry.

    The runtime's fallback *warning* is deduplicated per (netlist,
    reason) per process, but the ``fastpath.fallback{,.<code>}``
    counters fire on every occurrence — so the flight payloads carry
    the true per-shard counts and this fold is exact.  Returns
    ``{"total": N, "by_code": {code: N, ...}}`` summed over every
    telemetry-carrying shard (all zeros/empty when nothing fell back).
    """
    prefix = "fastpath.fallback."
    total = 0
    by_code: dict = {}
    for o in _telemetry_outcomes(outcomes):
        counters = ShardTelemetry.from_dict(o.telemetry).counters
        total += int(counters.get("fastpath.fallback", 0))
        for name, value in counters.items():
            if name.startswith(prefix):
                code = name[len(prefix):]
                by_code[code] = by_code.get(code, 0) + int(value)
    return {"total": total,
            "by_code": dict(sorted(by_code.items()))}


def probe_rollups(outcomes) -> dict:
    """Campaign-wide merge of per-shard probe summaries: count-weighted
    mean, global min/max, total alert count per probe name."""
    out: dict = {}
    for o in _telemetry_outcomes(outcomes):
        t = ShardTelemetry.from_dict(o.telemetry)
        for name in sorted(t.probes):
            p = t.probes[name]
            rec = out.setdefault(name, {"unit": p.get("unit", ""),
                                        "count": 0, "sum": 0.0,
                                        "min": None, "max": None})
            rec["count"] += p["count"]
            if p["count"]:
                rec["sum"] += p["mean"] * p["count"]
                rec["min"] = p["min"] if rec["min"] is None \
                    else min(rec["min"], p["min"])
                rec["max"] = p["max"] if rec["max"] is None \
                    else max(rec["max"], p["max"])
    for rec in out.values():
        rec["mean"] = rec["sum"] / rec["count"] if rec["count"] else None
        del rec["sum"]
    return out


def _exact_percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile over raw samples (None when empty)."""
    return nearest_rank(sorted(values), q)


def nearest_rank(ordered, q: float) -> Optional[float]:
    """Nearest-rank percentile of samples already in ascending order
    (None when empty): :func:`_exact_percentile` without the sort."""
    if not ordered:
        return None
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]

"""repro.telemetry — tracing, metrics and profiling for the simulator,
the configuration manager and the receiver control loops.

The paper's claims are timing claims (one result per cycle through a
filled pipeline, configuration 2b loading into the resources 2a freed),
so this package records *cycle-stamped* events rather than wall time:

* :class:`Tracer` — structured spans, instants and counter samples
  against the simulator's cycle clock, with a process-wide injectable
  default (:func:`get_tracer`) that is a no-op until enabled;
* :class:`MetricsRegistry` — counters, gauges and histograms
  (reconfiguration latency, firing rates, FIFO depths, tokens/cycle)
  with periodic snapshotting;
* exporters — Chrome ``trace_event`` JSON for ``chrome://tracing`` /
  Perfetto, flat JSON/CSV metrics dumps, and an ASCII timeline
  (:func:`render_timeline`) next to :mod:`repro.xpp.visual`;
* :class:`ProbeBoard` — *signal-domain* probe points (per-finger SINR,
  preamble correlation, FFT overflow counts, EVM, link BER) with a
  no-op default (:func:`get_probes`) and a watchdog raising structured
  alerts on NaN / saturation storms / quiescence;
* :class:`RunReport` — probes + metrics + RunStats merged into one
  JSON/Markdown artifact, with ASCII constellation and bar renderers;
* :mod:`~repro.telemetry.flight` — the cross-process flight recorder:
  per-shard capture of traces/metrics/probes that rides campaign
  checkpoints, campaign-wide Chrome-trace merge with per-shard lanes
  and metric rollups.

Typical use::

    from repro import telemetry

    with telemetry.tracing() as tr:
        schedule.start_acquisition()
        ...
    telemetry.write_chrome_trace("fig10_trace.json", tr)
"""

from repro.telemetry.flight import (
    DEFAULT_MAX_EVENTS,
    CappedTracer,
    FlightRecorder,
    ShardTelemetry,
    merge_histogram_dicts,
    merged_chrome_trace,
    metric_rollups,
    probe_rollups,
    write_merged_trace,
)
from repro.telemetry.export import (
    TRACE_PID,
    chrome_trace,
    load_chrome_trace,
    metrics_to_csv,
    metrics_to_dict,
    span_names_in_order,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    collecting,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)
from repro.telemetry.probes import (
    ALERT_DEADLINE,
    ALERT_DEGRADED,
    ALERT_FAULT,
    ALERT_NAN,
    ALERT_QUEUE_SATURATED,
    ALERT_QUIESCENT,
    ALERT_SATURATION_STORM,
    NULL_PROBES,
    Alert,
    NullProbes,
    Probe,
    ProbeBoard,
    Watchdog,
    decision_directed_sinr_db,
    disable_probes,
    enable_probes,
    evm_rms,
    get_probes,
    nearest_qpsk,
    probing,
    set_probes,
)
from repro.telemetry.report import RunReport
from repro.telemetry.timeline import (
    render_bars,
    render_constellation,
    render_timeline,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    iter_events,
    set_tracer,
    tracing,
)

__all__ = [
    "ALERT_DEADLINE",
    "ALERT_DEGRADED",
    "ALERT_FAULT",
    "ALERT_NAN",
    "ALERT_QUEUE_SATURATED",
    "ALERT_QUIESCENT",
    "ALERT_SATURATION_STORM",
    "DEFAULT_BOUNDS",
    "DEFAULT_MAX_EVENTS",
    "NULL_METRICS",
    "NULL_PROBES",
    "NULL_TRACER",
    "TRACE_PID",
    "Alert",
    "CappedTracer",
    "Counter",
    "FlightRecorder",
    "ShardTelemetry",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullProbes",
    "NullTracer",
    "Probe",
    "ProbeBoard",
    "RunReport",
    "TraceEvent",
    "Tracer",
    "Watchdog",
    "chrome_trace",
    "collecting",
    "decision_directed_sinr_db",
    "disable_metrics",
    "disable_probes",
    "disable_tracing",
    "enable_metrics",
    "enable_probes",
    "enable_tracing",
    "evm_rms",
    "get_metrics",
    "get_probes",
    "get_tracer",
    "iter_events",
    "load_chrome_trace",
    "merge_histogram_dicts",
    "merged_chrome_trace",
    "metric_rollups",
    "metrics_to_csv",
    "metrics_to_dict",
    "nearest_qpsk",
    "probe_rollups",
    "probing",
    "render_bars",
    "render_constellation",
    "render_timeline",
    "set_metrics",
    "set_probes",
    "set_tracer",
    "span_names_in_order",
    "tracing",
    "write_chrome_trace",
    "write_merged_trace",
    "write_metrics_csv",
    "write_metrics_json",
]

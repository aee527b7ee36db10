"""Compile "explain" diagnostics for the fastpath backend.

:func:`explain` dry-runs the whole compile pipeline — classify,
capture, runtime-state checks, value lowering, kernel emission,
bytecode compilation and a bounded replay — against a configuration
manager and reports what happened as a
:class:`repro.diagnostics.CompileReport`, the shape the pnr compiler
reports in too:

* one :class:`~repro.diagnostics.Diagnostic` per object that fails to
  classify (its reason code from
  :data:`repro.diagnostics.REASON_CODES`, ``node`` = the object name),
  plus the graph-level rejection (dangling wires, fault taps …) when no
  object diagnostic already carries its code;
* the node census per kind tag (``kinds``) and, in ``details``: the
  generator kinds present, the member object names of each feedback
  SCC the epoch lowering absorbs (``sccs``; every other node lowers
  into the whole-trace value pass), the graph's compile-cache
  ``fingerprint`` and where a compile would hit right now (``cache``:
  ``memory`` / ``miss``, probed without populating anything, so the
  dry-run stays side-effect free), the emitted ``kernel_lines``, the
  replay probe's ``trace_cycles`` and whether it ``absorbed``, and the
  ``checkpoints`` cadences ``[FIRES_CHECK, STATE_CHECK]``;
* wall-clock phase timings (capture / lower / emit / compile / replay)
  recorded as tracer spans, so the same report feeds Chrome traces.

The report is what the fallback warning is not: instead of one opaque
"falling back" line, every rejection branch in ``capture.py`` /
``ir.py`` surfaces its reason code, and a compilable graph shows where
compile time goes.  ``python -m repro.fastpath explain`` wraps this
for the command line.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Optional

from repro import diagnostics
from repro.fastpath.cache import graph_fingerprint, probe
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.ir import GENERATORS, UnsupportedGraphError, classify
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    compile_trace,
    emit_epoch,
    emit_trace,
    state_spec,
    value_streams,
)
from repro.telemetry.tracer import Tracer

#: default replay window for the trace-length probe
DEFAULT_CYCLES = 4096


def explain(manager, *, cycles: int = DEFAULT_CYCLES,
            tracer: Optional[Tracer] = None) -> diagnostics.CompileReport:
    """Dry-run the compile pipeline and report what happened.

    Never raises ``UnsupportedGraphError`` and never mutates the live
    netlist: the replay probe runs the generated kernel against a copy
    of the initial count state without writing anything back.  Pass a
    ``tracer`` to also collect the phase spans as trace events (wall
    seconds on the span clock).
    """
    tr = tracer if tracer is not None else Tracer(clock=time.perf_counter)
    report = diagnostics.CompileReport(diagnostics.FASTPATH,
                                       f"manager v{manager.version}")
    for o in manager.active_objects():
        try:
            classify(o)
        except UnsupportedGraphError as exc:
            report.diagnostics.append(
                diagnostics.Diagnostic(exc.code, str(exc), node=o.name))

    with tr.span("explain.capture", cat="fastpath"):
        t0 = time.perf_counter()
        try:
            graph = capture(manager)
            check_runtime_state(graph)
        except UnsupportedGraphError as exc:
            if exc.code not in report.codes:
                report.diagnostics.append(
                    diagnostics.Diagnostic(exc.code, str(exc)))
            graph = None
        report.timings_s["capture"] = time.perf_counter() - t0
    if graph is None:
        return report

    report.n_nodes = len(graph.nodes)
    report.n_edges = len(graph.edges)
    report.kinds = dict(Counter(n.kind for n in graph.nodes))
    fingerprint = graph_fingerprint(graph)
    report.details = {
        "generators": sorted(k for k in report.kinds if k in GENERATORS),
        "sccs": [[graph.nodes[i].obj.name for i in scc]
                 for scc in graph.sccs],
        "fingerprint": fingerprint,
        "cache": probe(fingerprint),
    }

    with tr.span("explain.lower", cat="fastpath"):
        t0 = time.perf_counter()
        edge_vals = value_streams(graph, cycles)
        report.timings_s["lower"] = time.perf_counter() - t0
    with tr.span("explain.emit", cat="fastpath"):
        t0 = time.perf_counter()
        srcs = [emit_trace(graph)] + [emit_epoch(graph, s)
                                      for s in range(len(graph.sccs))]
        report.details["kernel_lines"] = sum(src.count("\n") + 1
                                             for src in srcs)
        report.timings_s["emit"] = time.perf_counter() - t0
    with tr.span("explain.compile", cat="fastpath"):
        t0 = time.perf_counter()
        trace = compile_trace(graph)
        report.timings_s["compile"] = time.perf_counter() - t0

    with tr.span("explain.replay", cat="fastpath"):
        t0 = time.perf_counter()
        from repro.fastpath.runtime import initial_state
        sv = [None] * len(graph.edges)
        for j in graph.select_edges():
            sv[j] = edge_vals[j].tolist()
        for j in graph.stamp_edges():
            sv[j] = []
        masks: list = []
        done, _ = trace(initial_state(graph, state_spec(graph)),
                        sv, masks, [], [], cycles)
        report.details.update(trace_cycles=len(masks), absorbed=bool(done),
                              checkpoints=[FIRES_CHECK, STATE_CHECK])
        report.timings_s["replay"] = time.perf_counter() - t0

    report.ok = True
    return report

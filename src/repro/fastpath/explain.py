"""Compile "explain" diagnostics for the fastpath backend.

:func:`explain` dry-runs the whole compile pipeline — classify,
capture, runtime-state checks, kernel emission, bytecode compilation
and a bounded replay through the same :class:`~repro.fastpath.runtime.
TraceSession` every fastpath run opens — against a configuration
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
  SCC (``sccs``; every other node lowers into the whole-trace value
  pass) and how each is lowered (``lowering``: ``ring`` for an
  additive ring the value pass computes in closed form, ``epoch`` for
  a generated epoch kernel), the graph's compile-cache
  ``fingerprint`` and where a compile would hit right now (``cache``:
  ``memory`` / ``miss``, probed without populating anything: the
  dry-run compiles a :class:`~repro.fastpath.cache.Netlist` of its own,
  so it stays side-effect free), the lines of the sources it emits
  (``kernel_lines``), the replay probe's ``trace_cycles`` within its
  window and whether its zero mask falls inside it (``absorbed``), and
  the ``checkpoints`` cadences ``[FIRES_CHECK, STATE_CHECK]``;
* wall-clock phase timings (capture / emit / compile / replay; the
  replay includes the value pass) recorded as tracer spans, so the
  same report feeds Chrome traces.

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
from repro.fastpath.cache import (
    Netlist,
    emit_sources,
    graph_fingerprint,
    probe,
)
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.ir import GENERATORS, UnsupportedGraphError, classify
from repro.fastpath.lower import FIRES_CHECK, STATE_CHECK, ring_of
from repro.fastpath.runtime import TraceSession
from repro.telemetry.tracer import Tracer

#: default replay window for the trace-length probe
DEFAULT_CYCLES = 4096


def explain(manager, *, cycles: int = DEFAULT_CYCLES,
            tracer: Optional[Tracer] = None) -> diagnostics.CompileReport:
    """Dry-run the compile pipeline and report what happened.

    Never raises ``UnsupportedGraphError`` and never mutates the live
    netlist: the replay probe traces at least ``cycles`` cycles (a
    session's first window is 256) without replaying any into live
    state, so nothing is written back.  Pass a
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
                diagnostics.Diagnostic(exc.code, exc.message, node=o.name))

    with tr.span("explain.capture", cat="fastpath"):
        t0 = time.perf_counter()
        try:
            graph = capture(manager)
            check_runtime_state(graph)
        except UnsupportedGraphError as exc:
            if exc.code not in report.codes:
                report.diagnostics.append(
                    diagnostics.Diagnostic(exc.code, exc.message,
                                           node=exc.node))
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
        "lowering": ["epoch" if ring_of(graph, s) is None else "ring"
                     for s in range(len(graph.sccs))],
        "fingerprint": fingerprint,
        "cache": probe(fingerprint),
    }

    with tr.span("explain.emit", cat="fastpath"):
        t0 = time.perf_counter()
        sources = emit_sources(graph)
        report.details["kernel_lines"] = sum(
            src.count("\n") + 1 for src in sources.values())
        report.timings_s["emit"] = time.perf_counter() - t0
    with tr.span("explain.compile", cat="fastpath"):
        t0 = time.perf_counter()
        netlist = Netlist(graph, sources)
        report.timings_s["compile"] = time.perf_counter() - t0

    with tr.span("explain.replay", cat="fastpath"):
        t0 = time.perf_counter()
        session = TraceSession(graph, netlist)
        session.ensure(cycles)
        report.details.update(
            trace_cycles=min(len(session.masks), cycles),
            absorbed=session.z is not None and session.z < cycles,
            checkpoints=[FIRES_CHECK, STATE_CHECK])
        report.timings_s["replay"] = time.perf_counter() - t0

    report.ok = True
    return report

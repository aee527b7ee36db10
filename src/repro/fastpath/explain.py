"""Compile "explain" diagnostics for the fastpath backend.

:func:`explain` dry-runs the whole compile pipeline — classify,
capture, runtime-state checks, value lowering, kernel emission,
bytecode compilation and a bounded replay — against a configuration
manager and reports what happened as a structured
:class:`CompileReport`:

* a per-object classify verdict (kind tag, or the machine-readable
  rejection ``code`` from :data:`repro.diagnostics.REASON_CODES` plus
  the human message) and, once the graph is scheduled, the lowering
  strategy the node landed on (``trace`` — vectorized whole-trace value
  pass — or ``epoch`` — inside a feedback SCC's time-stepped kernel);
* the graph-level verdict (dangling wires, fault taps …) with its own
  reason code, plus the SCC census (count and sizes of the feedback
  components the epoch lowering absorbs);
* the compile-cache outlook: the graph's content fingerprint and where
  a compile would hit right now (``memory`` / ``miss``) —
  probed without populating anything, the dry-run stays side-effect
  free;
* the chosen lowering branch per op family (kind tag -> node count,
  generator families flagged);
* trace length of the bounded replay, kernel source size, and the
  checkpoint cadences (:data:`~repro.fastpath.lower.FIRES_CHECK`,
  :data:`~repro.fastpath.lower.STATE_CHECK`);
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
from dataclasses import dataclass, field
from typing import Optional

from repro.fastpath.cache import graph_fingerprint, probe
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.ir import GENERATORS, UnsupportedGraphError, classify
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    compile_trace,
    emit_epoch,
    emit_trace,
    value_streams,
)
from repro.telemetry.tracer import Tracer

#: default replay window for the trace-length probe
DEFAULT_CYCLES = 4096


@dataclass
class ObjectVerdict:
    """Classify outcome for one resident dataflow object."""

    name: str
    type: str
    ok: bool
    kind: Optional[str] = None      # kind tag when supported
    code: Optional[str] = None      # rejection reason code otherwise
    message: Optional[str] = None
    strategy: Optional[str] = None  # "trace" | "epoch" once scheduled

    def to_dict(self) -> dict:
        d = {"name": self.name, "type": self.type, "ok": self.ok}
        if self.ok:
            d["kind"] = self.kind
            if self.strategy is not None:
                d["strategy"] = self.strategy
        else:
            d["code"] = self.code
            d["message"] = self.message
        return d


@dataclass
class CompileReport:
    """Structured result of an :func:`explain` dry-run."""

    ok: bool
    version: int
    objects: list = field(default_factory=list)     # ObjectVerdict
    code: Optional[str] = None          # graph-level rejection reason
    message: Optional[str] = None
    lowering: dict = field(default_factory=dict)    # kind -> node count
    generators: list = field(default_factory=list)  # generator kinds present
    n_nodes: int = 0
    n_edges: int = 0
    scc_count: int = 0                  # feedback components (epoch kernels)
    scc_sizes: list = field(default_factory=list)   # nodes per SCC
    fingerprint: Optional[str] = None   # compile-cache content address
    cache: Optional[str] = None         # "memory" | "miss"
    trace_cycles: int = 0               # cycles traced by the replay probe
    absorbed: bool = False              # trace hit the all-idle fixpoint
    kernel_lines: int = 0               # emitted kernel source size
    fires_check: int = FIRES_CHECK
    state_check: int = STATE_CHECK
    timings_s: dict = field(default_factory=dict)   # phase -> seconds

    @property
    def rejected(self) -> list:
        """Object verdicts that refused to classify."""
        return [v for v in self.objects if not v.ok]

    @property
    def reason_codes(self) -> list:
        """Every distinct rejection code in the report, sorted."""
        codes = {v.code for v in self.objects if not v.ok}
        if self.code is not None:
            codes.add(self.code)
        return sorted(codes)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "version": self.version,
            "objects": [v.to_dict() for v in self.objects],
            "code": self.code,
            "message": self.message,
            "reason_codes": self.reason_codes,
            "lowering": dict(sorted(self.lowering.items())),
            "generators": self.generators,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "scc_count": self.scc_count,
            "scc_sizes": list(self.scc_sizes),
            "fingerprint": self.fingerprint,
            "cache": self.cache,
            "trace_cycles": self.trace_cycles,
            "absorbed": self.absorbed,
            "kernel_lines": self.kernel_lines,
            "fires_check": self.fires_check,
            "state_check": self.state_check,
            "timings_s": {k: round(v, 6)
                          for k, v in self.timings_s.items()},
        }

    def render(self) -> str:
        """One-screen human rendering of the report."""
        lines = []
        verdict = "compiles" if self.ok else f"falls back [{self.code}]"
        lines.append(f"fastpath explain: manager v{self.version} {verdict}")
        if self.message:
            lines.append(f"  reason: {self.message}")
        lines.append(f"  graph: {self.n_nodes} nodes, {self.n_edges} edges")
        if self.scc_count:
            sizes = ", ".join(str(n) for n in self.scc_sizes)
            lines.append(f"  feedback: {self.scc_count} SCC(s) "
                         f"[{sizes} nodes] -> epoch kernels")
        if self.fingerprint is not None:
            lines.append(f"  cache: {self.cache} "
                         f"({self.fingerprint[:12]}…)")
        if self.lowering:
            fams = ", ".join(
                f"{k}×{n}" + ("*" if k in self.generators else "")
                for k, n in sorted(self.lowering.items()))
            lines.append(f"  lowering: {fams} (* = generator budget)")
        for v in self.rejected:
            lines.append(f"  reject {v.name} ({v.type}): "
                         f"[{v.code}] {v.message}")
        if self.ok:
            absorbed = " (absorbed)" if self.absorbed else ""
            lines.append(f"  trace: {self.trace_cycles} cycles{absorbed}, "
                         f"kernel {self.kernel_lines} lines, "
                         f"checkpoints every {self.fires_check}/"
                         f"{self.state_check} cycles")
        if self.timings_s:
            per = ", ".join(f"{k} {v * 1e3:.2f}ms"
                            for k, v in self.timings_s.items())
            lines.append(f"  phases: {per}")
        return "\n".join(lines)


def _classify_all(manager) -> list:
    """Per-object verdicts, independent of each other."""
    verdicts = []
    for o in manager.active_objects():
        try:
            kind = classify(o)
        except UnsupportedGraphError as exc:
            verdicts.append(ObjectVerdict(
                name=o.name, type=type(o).__name__, ok=False,
                code=exc.code, message=str(exc)))
        else:
            verdicts.append(ObjectVerdict(
                name=o.name, type=type(o).__name__, ok=True, kind=kind))
    return verdicts


def explain(manager, *, cycles: int = DEFAULT_CYCLES,
            tracer: Optional[Tracer] = None) -> CompileReport:
    """Dry-run the compile pipeline and report what happened.

    Never raises ``UnsupportedGraphError`` and never mutates the live
    netlist: the replay probe runs the generated kernel against a copy
    of the initial count state without writing anything back.  Pass a
    ``tracer`` to also collect the phase spans as trace events (wall
    seconds on the span clock).
    """
    tr = tracer if tracer is not None else Tracer(clock=time.perf_counter)
    report = CompileReport(ok=False, version=manager.version)
    report.objects = _classify_all(manager)

    with tr.span("explain.capture", cat="fastpath"):
        t0 = time.perf_counter()
        try:
            graph = capture(manager)
            check_runtime_state(graph)
        except UnsupportedGraphError as exc:
            report.code = exc.code
            report.message = str(exc)
            graph = None
        report.timings_s["capture"] = time.perf_counter() - t0
    if graph is None:
        return report

    report.n_nodes = len(graph.nodes)
    report.n_edges = len(graph.edges)
    report.scc_count = len(graph.sccs)
    report.scc_sizes = [len(s) for s in graph.sccs]
    report.fingerprint = graph_fingerprint(graph)
    report.cache = probe(report.fingerprint)
    # capture enumerates active_objects() in order, so verdicts and
    # nodes line up index-for-index
    for v, n in zip(report.objects, graph.nodes):
        if v.ok:
            v.strategy = graph.strategy(n.i)
    for n in graph.nodes:
        report.lowering[n.kind] = report.lowering.get(n.kind, 0) + 1
    report.generators = sorted(k for k in report.lowering if k in GENERATORS)

    with tr.span("explain.lower", cat="fastpath"):
        t0 = time.perf_counter()
        edge_vals = value_streams(graph, cycles)
        report.timings_s["lower"] = time.perf_counter() - t0
    with tr.span("explain.emit", cat="fastpath"):
        t0 = time.perf_counter()
        src = emit_trace(graph)
        report.kernel_lines = src.count("\n") + 1
        for s in range(len(graph.sccs)):
            report.kernel_lines += emit_epoch(graph, s).count("\n") + 1
        report.timings_s["emit"] = time.perf_counter() - t0
    with tr.span("explain.compile", cat="fastpath"):
        t0 = time.perf_counter()
        trace = compile_trace(graph)
        report.timings_s["compile"] = time.perf_counter() - t0

    with tr.span("explain.replay", cat="fastpath"):
        t0 = time.perf_counter()
        from repro.fastpath.lower import state_spec
        from repro.fastpath.runtime import initial_state
        sv = [None] * len(graph.edges)
        for j in graph.select_edges():
            sv[j] = edge_vals[j].tolist()
        for j in graph.stamp_edges():
            sv[j] = []
        masks: list = []
        done, _ = trace(initial_state(graph, state_spec(graph)),
                        sv, masks, [], [], cycles)
        report.trace_cycles = len(masks)
        report.absorbed = bool(done)
        report.timings_s["replay"] = time.perf_counter() - t0

    report.ok = True
    return report

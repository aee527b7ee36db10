"""repro.fastpath — compiled vectorized kernel backend.

Captures a loaded configuration's dataflow graph into compile-time IR,
schedules it topologically, and executes whole slots/symbols per call
as batched NumPy int64 operations instead of object-at-a-time
plan/commit dispatch.  Results are bit-exact with the event and naive
schedulers.  Feedback rings compile too: each strongly-connected
component is lowered into a generated time-stepped *epoch kernel*
while the acyclic remainder keeps the whole-trace value pass, and
RAM-PAE reads take their values after the trace, which stamps each
read with the writes committed before it.  Graphs the compiler cannot
prove (custom firing rules, RAM read data steering a select, fault
taps) transparently fall back to the event scheduler with a
:class:`FastpathFallbackWarning` (deduplicated per netlist shape and
reason per process).  Compiled kernels are cached content-addressed in
an in-process LRU (:mod:`repro.fastpath.cache`).

Use it either through the scheduler seam::

    from repro.xpp import Simulator, make_scheduler
    sim = Simulator(mgr, scheduler=make_scheduler("fastpath"))

or through the drop-in sibling of :func:`repro.xpp.execute`::

    from repro import fastpath
    result = fastpath.execute(build_cfg, data)
"""

from __future__ import annotations

from repro.diagnostics import REASON_CODES
from repro.fastpath.cache import (
    clear_memory_cache,
    compile_graph,
    graph_fingerprint,
    warmup,
)
from repro.fastpath.capture import capture, capture_sets, check_runtime_state
from repro.fastpath.explain import explain
from repro.fastpath.ir import (
    Edge,
    Graph,
    Node,
    UnsupportedGraphError,
)
from repro.fastpath.lower import (
    compile_epoch,
    compile_trace,
    emit_epoch,
    emit_trace,
    value_streams,
)
from repro.fastpath.runtime import (
    FastpathFallbackWarning,
    FastpathScheduler,
    TraceSession,
    reset_fallback_warnings,
)

__all__ = [
    "REASON_CODES",
    "Edge",
    "FastpathFallbackWarning",
    "FastpathScheduler",
    "Graph",
    "Node",
    "TraceSession",
    "UnsupportedGraphError",
    "capture",
    "capture_sets",
    "check_runtime_state",
    "clear_memory_cache",
    "compile_epoch",
    "compile_graph",
    "compile_trace",
    "emit_epoch",
    "emit_trace",
    "execute",
    "explain",
    "graph_fingerprint",
    "reset_fallback_warnings",
    "value_streams",
    "warmup",
]


def execute(*args, **kwargs):
    """Run a configuration to completion on the fastpath backend.

    Same signature and semantics as :func:`repro.xpp.execute`, with the
    scheduler pinned to ``"fastpath"`` — bit-exact results, batched
    execution for compilable graphs, transparent fallback otherwise.
    """
    if "scheduler" in kwargs:
        raise TypeError(
            "fastpath.execute() pins scheduler='fastpath'; "
            "use repro.xpp.execute() to choose another backend")
    from repro.xpp.simulator import execute as _execute
    return _execute(*args, scheduler="fastpath", **kwargs)

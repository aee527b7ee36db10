"""repro.fastpath — compiled vectorized kernel backend.

Captures a loaded configuration's dataflow graph into compile-time IR,
schedules it topologically, and executes whole slots/symbols per call
as batched NumPy int64 operations instead of object-at-a-time
plan/commit dispatch.  Results are bit-exact with the event and naive
schedulers.  Feedback rings compile too: each strongly-connected
component is lowered into a generated time-stepped *epoch kernel*, or
computed in closed form when it is an additive ring (an
integrate-and-dump loop), while the acyclic remainder keeps the
whole-trace value pass, and
RAM-PAE reads take their values after the trace, which stamps each
read with the writes committed before it.  Graphs the compiler cannot
prove (custom firing rules, RAM read data steering a select, fault
taps) transparently fall back to the event scheduler with a
:class:`FastpathFallbackWarning` (deduplicated per netlist shape and
reason per process).  Compiled kernels are cached content-addressed in
an in-process LRU (:mod:`repro.fastpath.cache`).

Use it through the scheduler seam::

    from repro.xpp import Simulator, execute, make_scheduler
    sim = Simulator(mgr, scheduler=make_scheduler("fastpath"))
    result = execute(cfg, inputs=data, scheduler="fastpath")
"""

from __future__ import annotations

from repro.diagnostics import REASON_CODES
from repro.fastpath.cache import (
    clear_memory_cache,
    compile_graph,
    graph_fingerprint,
    warmup,
)
from repro.fastpath.capture import capture, check_runtime_state
from repro.fastpath.explain import explain
from repro.fastpath.ir import (
    Edge,
    Graph,
    Node,
    UnsupportedGraphError,
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
    "check_runtime_state",
    "clear_memory_cache",
    "compile_graph",
    "explain",
    "graph_fingerprint",
    "reset_fallback_warnings",
    "warmup",
]


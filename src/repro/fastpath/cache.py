"""Content-addressed compile cache for generated fastpath kernels.

Compiling a captured graph costs two codegen passes (the count-level
trace kernel plus one epoch kernel per feedback component) and a
CPython ``compile()`` each — pure overhead when the same netlist shape
is compiled again: every campaign shard compiles the identical config,
and every Fig. 10 version bump recompiles a config that was resident
minutes ago.  This module makes recompilation a lookup:

* **Fingerprint** — :func:`graph_fingerprint` hashes the *structural*
  descriptor of the graph: per-node kind + port bindings + exactly the
  parameters the code generators bake into source as literals, plus
  per-edge connectivity and capacities.  Runtime state (stream data,
  LUT contents, register preloads, accumulator partials) is *not*
  hashed — it is passed to the kernels via ``state``/``env`` tuples at
  call time, so two configs that differ only in data share one kernel.

* **In-process LRU** — fingerprint -> (trace fn, epoch fns, schedule
  memo, data plan).  A hit returns the very same function objects,
  skipping emit *and* compile.  The schedule memo (:func:`schedule_memo`)
  holds the firing schedules traced on this netlist, keyed by the count
  state a trace started from; the data plan (:class:`DataPlan`) holds
  the value streams no data can change.  Both live and die with the LRU
  entry.

This is the only layer: nothing is written to disk, so each process
compiles a netlist shape once, on its first lookup.

Hits and misses are observable via the ``fastpath.cache.hit`` and
``fastpath.cache.miss`` metrics counters, and per netlist in
``repro.fastpath.explain``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from operator import attrgetter

from repro.fastpath.capture import capture_sets
from repro.fastpath.ir import Graph
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    PlanView,
    _node_streams,
    _store,
    compile_epochs,
    compile_trace,
    select_split,
)
from repro.telemetry.metrics import get_metrics

#: max graphs kept compiled in this process
LRU_MAX = 64

#: max traced schedules (and data-plan states) remembered per compiled
#: graph
MEMO_MAX = 32

_lock = threading.Lock()
_lru = OrderedDict()        # fingerprint -> (trace_fn, epoch_fns, memo,
                            #                 data plan)


#: per-kind object parameters that the code generators bake into the
#: emitted source as literals (everything else rides in at call time)
_PARAMS = {
    "binary": ("OPCODE", "const", "shift", "bits"),
    "unary": ("OPCODE", "bits"),
    "shiftalu": ("amount", "bits"),
    "lut": ("bits",),
    "cadd": ("half_bits", "shift"),
    "csub": ("half_bits", "shift"),
    "cmul": ("half_bits", "shift", "conj_b", "round_shift"),
    "cconj": ("half_bits",),
    "cneg": ("half_bits",),
    "cmulj": ("half_bits", "sign"),
    "cshift": ("half_bits", "amount"),
    "pack": ("half_bits",),
    "unpack": ("half_bits",),
    "acc": ("length", "shift", "bits"),
    "cacc": ("length", "shift", "half_bits"),
    "integ": ("bits",),
    "cinteg": ("half_bits",),
    "reg": ("bits",),
    "fifo": ("depth", "circular", "bits"),
    "ram": ("words", "bits"),
}


def node_signature(node) -> tuple:
    """Structural signature of one node: everything about it that can
    change the generated source."""
    o = node.obj
    params = tuple((a, getattr(o, a)) for a in _PARAMS.get(node.kind, ()))
    if node.kind == "lut":
        params += (("tlen", len(o.table)),)
    return (node.kind, node.in_edges, node.out_ports, params)


def graph_fingerprint(graph: Graph) -> str:
    """Hex sha256 of the graph's structural descriptor (the cache key)."""
    desc = (
        (FIRES_CHECK, STATE_CHECK),
        tuple(node_signature(n) for n in graph.nodes),
        tuple((e.src, e.src_port, e.dst, e.dst_port, e.cap)
              for e in graph.edges),
    )
    return hashlib.sha256(repr(desc).encode()).hexdigest()


# -- front door --------------------------------------------------------------


def compile_graph(graph: Graph) -> tuple:
    """``(trace_fn, epoch_fns, fingerprint, hit)`` for a captured graph.

    A hit returns the exact same function objects; a miss runs both
    code generators and remembers the result.
    """
    fp = graph_fingerprint(graph)
    metrics = get_metrics()
    with _lock:
        cached = _lru.get(fp)
        if cached is not None:
            _lru.move_to_end(fp)
    if cached is not None:
        metrics.counter("fastpath.cache.hit").inc()
        return cached[0], cached[1], fp, True

    metrics.counter("fastpath.cache.miss").inc()
    trace, epochs = compile_trace(graph), tuple(compile_epochs(graph))
    with _lock:
        _lru[fp] = (trace, epochs, OrderedDict(), DataPlan(graph))
        _lru.move_to_end(fp)
        while len(_lru) > LRU_MAX:
            _lru.popitem(last=False)
    return trace, epochs, fp, False


def probe(fp: str) -> str:
    """Where a fingerprint would hit right now: ``"memory"`` or
    ``"miss"``, without promoting or populating anything (the
    side-effect-free peek ``fastpath explain`` uses)."""
    with _lock:
        return "memory" if fp in _lru else "miss"


def warmup(objs, wires) -> tuple:
    """Capture + compile an explicit object/wire set into the cache.

    ``(fingerprint, hit)`` on success; raises ``UnsupportedGraphError``
    for netlists the compiler rejects (callers doing speculative
    prefetch catch it — the eventual swap just compiles on first step,
    exactly as without warm-up).
    """
    graph = capture_sets(objs, wires)
    _, _, fp, hit = compile_graph(graph)
    return fp, hit


def schedule_memo(fp: str) -> OrderedDict:
    """The schedule memo of a compiled graph: count state at session
    open -> traced schedule (see :class:`repro.fastpath.runtime.
    TraceSession`).  A graph no longer in the LRU gets a fresh memo that
    nothing else shares."""
    with _lock:
        cached = _lru.get(fp)
    return cached[2] if cached is not None else OrderedDict()


def memo_store(memo: OrderedDict, key, entry) -> None:
    """Remember ``entry`` under ``key``, evicting the least recently
    stored schedule beyond :data:`MEMO_MAX`."""
    with _lock:
        memo[key] = entry
        memo.move_to_end(key)
        while len(memo) > MEMO_MAX:
            memo.popitem(last=False)


def data_plan(fp: str, graph: Graph) -> "DataPlan":
    """The data plan of a compiled graph (a fresh one that nothing else
    shares when the graph is no longer in the LRU)."""
    with _lock:
        cached = _lru.get(fp)
    return cached[3] if cached is not None else DataPlan(graph)


def clear_schedule_memos() -> None:
    """Empty every compiled graph's schedule memo and data plan in
    place, keeping the compiled kernels (test seam)."""
    with _lock:
        for entry in _lru.values():
            entry[2].clear()
            entry[3].states.clear()


def clear_memory_cache() -> None:
    """Drop the in-process LRU and the schedule memos and data plans it
    holds (test seam)."""
    clear_schedule_memos()
    with _lock:
        _lru.clear()


# -- data plan ---------------------------------------------------------------


def _seq_regs(o) -> tuple:
    return (tuple(o.values), o.circular, o.bits, o._pos)


#: kinds a data plan can hold -> the parameters and live registers their
#: value streams are a function of (an ALU only when every input it
#: reads is held too; stream sources are data and never held)
_PLAN_REGS = {
    "counter": attrgetter("start", "step", "limit", "mode", "count", "bits",
                          "_value", "_emitted", "_stopped"),
    "const": attrgetter("value", "count", "bits", "_emitted"),
    "seq": _seq_regs,
    "binary": attrgetter("OPCODE", "const", "shift", "bits"),
    "unary": attrgetter("OPCODE", "bits"),
    "shiftalu": attrgetter("amount", "bits"),
}


class DataPlan:
    """The data-independent part of one netlist's value pass.

    A counter, const or seq stream, and the stream of every ALU fed only
    by such streams (the CMP that turns a counter into a select, say),
    is a function of those objects' parameters and registers and of the
    tokens queued on their out wires.  None of it is data, and none of
    it changes when a resident configuration is refilled, so the value
    pass takes these streams from here, with the :func:`~repro.fastpath.
    lower.select_split` tables of every select they drive (the DEMUX
    masks and MERGE/GATE gather indices), instead of recomputing them.

    The key is every held node's ``_PLAN_REGS`` tuple plus the queued
    tokens of every held edge: exactly what ``_node_streams`` and
    ``_store`` read for them.  The session-open count state is not
    enough, because it records a counter's remaining budget, not its
    phase.  One state keeps the streams of the longest window asked
    for; a shorter window reads a prefix (the value pass is
    prefix-consistent in its window).  Cached arrays are read-only, and
    the select token lists handed to the trace kernel are tuples.
    """

    def __init__(self, graph: Graph):
        nodes, edges = graph.nodes, graph.edges
        held = []
        for tag, i in graph.schedule:
            n = nodes[i] if tag == "node" else None
            if n is not None and n.kind in _PLAN_REGS and all(
                    j is None or edges[j].src in held for j in n.in_edges):
                held.append(i)
        self.nodes = tuple(held)
        self.units = frozenset(("node", i) for i in held)
        self.edges = [j for i in held for j in nodes[i].out_edges()]
        kept = set(self.edges)
        self.selects = [j for j in graph.select_edges() if j in kept]
        self._regs = [(i, _PLAN_REGS[nodes[i].kind]) for i in held]
        self.states = OrderedDict()     # key -> (limit, streams, heads,
                                        #         splits, lists)

    def key(self, graph: Graph) -> tuple:
        nodes, edges = graph.nodes, graph.edges
        return (tuple(regs(nodes[i].obj) for i, regs in self._regs),
                tuple(tuple(edges[j].wire._q) for j in self.edges))

    def view(self, graph: Graph, limit: int):
        """The held streams over a ``limit``-cycle window, as a
        :class:`~repro.fastpath.lower.PlanView` (None when the netlist
        has no data-independent node)."""
        if not self.nodes:
            return None
        key = self.key(graph)
        state = self.states.get(key)
        if state is None or state[0] < limit:
            state = self._build(graph, limit)
            memo_store(self.states, key, state)
        have, streams, heads, splits, lists = state
        if have > limit:
            streams = list(streams)
            for j, q in heads:
                v = streams[j]
                streams[j] = v[:q + min(limit, len(v) - q)]
        return PlanView(self.units, streams, splits, lists)

    def _build(self, graph: Graph, limit: int) -> tuple:
        vals = [None] * len(graph.edges)
        for i in self.nodes:
            node = graph.nodes[i]
            ins = [vals[j] if j is not None else None
                   for j in node.in_edges]
            _store(graph, node, _node_streams(node, ins, limit), vals, limit)
        for j in self.edges:
            vals[j].flags.writeable = False
        splits = {}
        for j in self.selects:
            split = select_split(vals[j])
            for a in split:
                a.flags.writeable = False
            splits[j] = split
        heads = [(j, len(graph.edges[j].wire._q)) for j in self.edges]
        lists = {j: tuple(vals[j].tolist()) for j in self.selects}
        return limit, vals, heads, splits, lists

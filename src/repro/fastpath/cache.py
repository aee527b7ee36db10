"""Content-addressed compile cache for generated fastpath kernels.

Compiling a captured graph costs three codegen passes (the count-level
trace kernel, the value pass and one epoch kernel per feedback
component that is not an additive ring) and a CPython ``compile()``
each — pure overhead when the same netlist shape is compiled again:
every campaign shard compiles the identical config, and every Fig. 10
version bump recompiles a config that was resident minutes ago.  This
module makes recompilation a lookup:

* **Fingerprint** — :func:`graph_fingerprint` hashes the *structural*
  descriptor of the graph: per-node kind + port bindings + exactly the
  parameters the code generators bake into source as literals, plus
  per-edge connectivity and capacities.  Runtime state (stream data,
  LUT contents, register preloads, accumulator partials) is *not*
  hashed — it is passed to the kernels via ``state``/``env`` tuples at
  call time, so two configs that differ only in data share one kernel.

* **In-process LRU** — fingerprint -> :class:`Netlist`, everything
  derived from one netlist shape: the trace, value-pass and epoch
  kernels with their sources, the count-state layout, the select and
  stamp edges, the schedule memo (the firing schedules traced on this
  shape, keyed by the count state a trace started from) and the
  :class:`DataPlan` (the value streams no data can change).  A hit
  hands back the very same object, so every session of the shape
  shares its kernels, memo and plan.

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
from typing import NamedTuple

from repro.fastpath.capture import capture_sets
from repro.fastpath.ir import Graph
from repro.fastpath.lower import (
    FIRES_CHECK,
    STATE_CHECK,
    PlanView,
    budget,
    compile_kernel,
    emit_epoch,
    emit_late_batch,
    emit_trace,
    emit_values,
    member_edges,
    ring_of,
    select_split,
    state_spec,
)
from repro.telemetry.metrics import get_metrics

#: max graphs kept compiled in this process
LRU_MAX = 64

#: max traced schedules (and data-plan states) remembered per compiled
#: graph
MEMO_MAX = 32

_lock = threading.Lock()
_lru = OrderedDict()        # fingerprint -> Netlist


#: per-kind object parameters that the code generators bake into the
#: emitted source as literals (everything else rides in at call time)
_PARAMS = {
    "source": ("bits",),
    "const": ("bits",),
    "seq": ("bits",),
    "counter": ("bits",),
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


def emit_sources(graph: Graph) -> dict:
    """The generated sources of one netlist shape, by kernel: ``trace``,
    ``values`` and ``epoch<s>`` per feedback component that is not an
    additive ring (the value pass computes a ring in closed form)."""
    sources = {"trace": emit_trace(graph),
               "values": emit_values(graph, plan_nodes(graph))}
    for s in range(len(graph.sccs)):
        if ring_of(graph, s) is None:
            sources[f"epoch{s}"] = emit_epoch(graph, s)
    return sources


class Netlist:
    """One compiled netlist shape: what every session of it shares.

    ``sources`` holds the emitted kernels (:func:`emit_sources`); built
    from them, ``trace`` is the count-level trace kernel, ``values`` and
    ``late`` the value pass and its late sweep, ``epochs`` the epoch
    kernels indexed like ``graph.sccs`` (None for an additive ring).
    ``spec`` is the count-state layout with ``at``, its index by key,
    and ``state0``, its template (see :meth:`initial_state`);
    ``selects`` and ``stamps`` are the select
    and RAM read-address edges (all functions of the structure alone).
    ``memo`` maps the count state a session opened on to the
    :class:`~repro.fastpath.runtime.Schedule` traced from it; ``plan``
    is the :class:`DataPlan`.  :meth:`batch_late` adds, on first use,
    the late sweep that carries a batch's members.
    Building one compiles every kernel without touching the LRU.
    """

    def __init__(self, graph: Graph, sources: dict = None):
        self.sources = emit_sources(graph) if sources is None else sources
        self.trace, = compile_kernel(self.sources["trace"], "_trace")
        fill, self.values, self.late = compile_kernel(
            self.sources["values"], "_plan", "_values", "_late")
        self.epochs = tuple(compile_kernel(self.sources[f"epoch{s}"],
                                           "_epoch")[0]
                            if f"epoch{s}" in self.sources else None
                            for s in range(len(graph.sccs)))
        self.spec = state_spec(graph)
        self.at = {key: k for k, key in enumerate(self.spec)}
        self.state0 = [0] * len(self.spec)
        self._live = {t: [] for t in ("o", "g", "an", "pre", "fl")}
        for k, (tag, x) in enumerate(self.spec):
            if tag in self._live:
                self._live[tag].append((k, x))
        self.selects = graph.select_edges()
        self.stamps = graph.stamp_edges()
        self.memo = OrderedDict()
        self.plan = DataPlan(graph, fill)
        self._batch = {}        # batched RAM nodes -> late sweep or None

    def batch_late(self, graph: Graph, rams: frozenset):
        """The late sweep of a session whose RAM-PAEs ``rams`` (node
        indices) hold one image per member, all members in one pass, or
        None when they cannot share a session (:func:`~repro.fastpath.
        lower.member_edges`).  Decided, emitted (into ``sources`` as
        ``late_batch<rams>``) and compiled once per netlist and RAM
        set."""
        try:
            return self._batch[rams]
        except KeyError:
            pass
        member = member_edges(graph, rams)
        late = None
        if member is not None:
            key = f"late_batch{sorted(rams)}"
            self.sources[key] = emit_late_batch(graph, self.plan.nodes,
                                                rams, member)
            late, = compile_kernel(self.sources[key], "_late")
        self._batch[rams] = late
        return late

    def initial_state(self, graph: Graph) -> tuple:
        """Count-state tuple at session open, read from the live netlist:
        the template's zeros with its live entries filled in."""
        st = list(self.state0)
        live, edges, nodes = self._live, graph.edges, graph.nodes
        for k, j in live["o"]:
            st[k] = len(edges[j].wire._q)
        for k, i in live["g"]:
            st[k] = budget(nodes[i].kind, nodes[i].obj)
        for k, i in live["an"]:
            st[k] = nodes[i].obj._n
        for k, i in live["pre"]:
            st[k] = len(nodes[i].obj._preload)
        for k, i in live["fl"]:
            st[k] = len(nodes[i].obj._q)
        return tuple(st)


class Compiled(NamedTuple):
    """A :func:`compile_graph` lookup: the shape's netlist and the
    capture it was looked up for (a session runs the one over the live
    objects of the other), the fingerprint and whether it was a hit."""

    netlist: Netlist
    graph: Graph
    fingerprint: str
    hit: bool


def compile_graph(graph: Graph) -> Compiled:
    """The compiled :class:`Netlist` of a captured graph, from the LRU
    when its fingerprint is there (the very same object), else built
    and remembered."""
    fp = graph_fingerprint(graph)
    with _lock:
        netlist = _lru.get(fp)
        if netlist is not None:
            _lru.move_to_end(fp)
    hit = netlist is not None
    get_metrics().counter("fastpath.cache.hit" if hit
                          else "fastpath.cache.miss").inc()
    if not hit:
        netlist = Netlist(graph)
        with _lock:
            _lru[fp] = netlist
            while len(_lru) > LRU_MAX:
                _lru.popitem(last=False)
    return Compiled(netlist, graph, fp, hit)


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
    _, _, fp, hit = compile_graph(capture_sets(objs, wires))
    return fp, hit


def memo_store(memo: OrderedDict, key, entry) -> None:
    """Remember ``entry`` under ``key``, evicting the least recently
    stored schedule beyond :data:`MEMO_MAX`."""
    with _lock:
        memo[key] = entry
        memo.move_to_end(key)
        while len(memo) > MEMO_MAX:
            memo.popitem(last=False)


def clear_schedule_memos() -> None:
    """Empty every compiled graph's schedule memo and data plan in
    place, keeping the compiled kernels (test seam)."""
    with _lock:
        for netlist in _lru.values():
            netlist.memo.clear()
            netlist.plan.states.clear()


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


def plan_nodes(graph: Graph) -> list:
    """Nodes of a netlist's data plan, in schedule order: every node of
    a ``_PLAN_REGS`` kind whose every input is held too."""
    nodes, edges = graph.nodes, graph.edges
    held = []
    for tag, i in graph.schedule:
        n = nodes[i] if tag == "node" else None
        if n is not None and n.kind in _PLAN_REGS and all(
                j is None or edges[j].src in held for j in n.in_edges):
            held.append(i)
    return held


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
    ``fill`` is the generated ``_plan`` function that computes them.

    The key is every held node's ``_PLAN_REGS`` tuple plus the queued
    tokens of every held edge: exactly what ``fill`` reads.  The
    session-open count state is not enough, because it records a
    counter's remaining budget, not its phase.  One state keeps the
    streams of the longest window asked for; a shorter window reads a
    prefix (the value pass is prefix-consistent in its window).  Cached
    arrays are read-only, and the select token lists handed to the trace
    kernel are tuples.
    """

    def __init__(self, graph: Graph, fill):
        nodes = graph.nodes
        self.fill = fill
        self.nodes = tuple(plan_nodes(graph))
        self.edges = [j for i in self.nodes for j in nodes[i].out_edges()]
        kept = set(self.edges)
        self.selects = [j for j in graph.select_edges() if j in kept]
        self._regs = [(i, _PLAN_REGS[nodes[i].kind]) for i in self.nodes]
        self.states = OrderedDict()     # key -> (limit, streams, heads,
                                        #         splits, lists)

    def key(self, graph: Graph) -> tuple:
        nodes, edges = graph.nodes, graph.edges
        return (tuple(regs(nodes[i].obj) for i, regs in self._regs),
                tuple(tuple(edges[j].wire._q) for j in self.edges))

    def view(self, graph: Graph, limit: int) -> PlanView:
        """The held streams over a ``limit``-cycle window, as a
        :class:`~repro.fastpath.lower.PlanView` (empty when the netlist
        has no data-independent node)."""
        if not self.nodes:
            return PlanView([None] * len(graph.edges), {}, {})
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
        return PlanView(streams, splits, lists)

    def _build(self, graph: Graph, limit: int) -> tuple:
        vals = self.fill(graph.objs, graph.wires, limit)
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

"""Compile-time IR of a captured dataflow graph.

The fastpath backend compiles the *structure* of the resident
configurations — objects, wires, port bindings and firing rules — into
a small intermediate representation.  A :class:`Graph` is a flat,
index-addressed view of the netlist: node ``i`` wraps one
``DataflowObject``, edge ``j`` wraps one ``Wire`` (every wire has
exactly one producer port and one consumer port), and the per-kind
lowering templates in :mod:`repro.fastpath.lower` key off
``Node.kind``.

Only graphs whose firing semantics the compiler can prove are
accepted: a fixed table of object types (exact type match — subclasses
may override anything) and parameter ranges that keep the vectorized
int64 arithmetic exact.  Everything else raises
:class:`UnsupportedGraphError`, which the runtime turns into a
transparent fallback to the event scheduler.

Cyclic wiring is *not* a rejection: feedback rings (the despreader's
integrate-and-dump loop, self-loop accumulators) are grouped into
strongly-connected components and lowered by a second strategy — a
generated time-stepped *epoch kernel* per SCC (see
:func:`repro.fastpath.lower.emit_epoch`), or a closed-form NumPy
kernel for an additive ring (:func:`repro.fastpath.lower.ring_of`) —
while the acyclic remainder keeps the whole-trace numpy value pass.
:func:`build_schedule` computes the condensation order that interleaves
both, with the SCC pass shared with place-and-route
(:mod:`repro.graphcore`).

A RAM-PAE is the one node whose output values depend on *when* it
fires: a read returns the memory image with every write committed in
earlier cycles applied.  For scheduling, its write port is a sink (the
write edges do not order the value pass), and the RAM plus everything
downstream of its read data form the graph's *late* set: their values
are computed after the count-level trace has stamped every read with
the number of writes committed before it (see
``TraceSession._grow_late``).  That split needs the
trace itself to be independent of RAM contents, so read data reaching
a DEMUX/MERGE/GATE select, or looping back to a RAM read address, is
rejected (:data:`~repro.diagnostics.REASON_RAM_CONTROL`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diagnostics import (
    REASON_CIRCULAR_FIFO,
    REASON_CONST_RANGE,
    REASON_COUNTER_RANGE,
    REASON_COUNTER_STEP,
    REASON_DYNAMIC_SHIFT,
    REASON_INSTANCE_OVERRIDE,
    REASON_RAM_CONTROL,
    REASON_SHIFT_RANGE,
    REASON_UNBOUND_INPUT,
    REASON_UNSUPPORTED_TYPE,
)
from repro.graphcore import condensation, is_feedback
from repro.xpp import alu, io, objects as xobjects, ram


class UnsupportedGraphError(Exception):
    """The captured graph cannot be compiled; run it on the golden path.

    ``code`` is the machine-readable rejection reason (one of
    :data:`repro.diagnostics.REASON_CODES`), ``message`` the human
    explanation and ``node`` the offending object's name, if one is to
    blame; ``str()`` reads ``"<node>: <message>"``.
    """

    def __init__(self, message: str, *, code: str = REASON_UNSUPPORTED_TYPE,
                 node: str = None):
        super().__init__(message if node is None else f"{node}: {message}")
        self.code = code
        self.message = message
        self.node = node


#: exact type -> kind tag.  Exact match on purpose: a subclass may
#: override plan/commit/compute, which the lowering templates cannot see.
KIND_OF = {
    io.StreamSource: "source",
    io.StreamSink: "sink",
    xobjects.Probe: "probe",
    alu.BinaryAlu: "binary",
    alu.UnaryAlu: "unary",
    alu.ShiftAlu: "shiftalu",
    alu.LutAlu: "lut",
    alu.ComplexAdd: "cadd",
    alu.ComplexSub: "csub",
    alu.ComplexMul: "cmul",
    alu.ComplexConj: "cconj",
    alu.ComplexNeg: "cneg",
    alu.ComplexMulJ: "cmulj",
    alu.ComplexShift: "cshift",
    alu.Pack: "pack",
    alu.Unpack: "unpack",
    alu.Mux: "mux",
    alu.Demux: "demux",
    alu.Merge: "merge",
    alu.Swap: "swap",
    alu.Gate: "gate",
    alu.Counter: "counter",
    alu.Const: "const",
    alu.Seq: "seq",
    alu.Acc: "acc",
    alu.ComplexAcc: "cacc",
    alu.Integrator: "integ",
    alu.ComplexIntegrator: "cinteg",
    alu.Reg: "reg",
    ram.FifoPae: "fifo",
    ram.RamPae: "ram",
}

#: kinds whose plan is the default firing rule gated by a token budget
GENERATORS = frozenset({"source", "const", "seq", "counter"})

#: kinds whose first input edge is a select the trace kernel peeks at
SELECTS = ("demux", "merge", "gate")

#: largest safe constant shift: 24-bit operands stay well inside int64
MAX_SHIFT = 32

#: largest safe binary-op constant: |a op const| stays inside int64 for
#: every opcode when |const| <= 2**61 and a is a wrapped 24-bit word
MAX_CONST = 1 << 61


@dataclass
class Edge:
    """One wire: a single producer port feeding a single consumer port."""

    j: int
    wire: object
    src: int            # producer node index
    src_port: int
    dst: int            # consumer node index
    dst_port: int
    cap: int


@dataclass
class Node:
    """One dataflow object, with its port-to-edge bindings resolved."""

    i: int
    obj: object
    kind: str
    in_edges: tuple     # per input port: edge index or None (unbound)
    out_ports: tuple    # per output port: tuple of edge indices (fan-out)

    def out_edges(self):
        """All out edge indices across every port, in port order."""
        return [j for port in self.out_ports for j in port]


@dataclass
class Graph:
    """The captured netlist plus its two-level lowering schedule.

    ``schedule`` is the condensation (SCC DAG) in topological order:
    ``("node", i)`` units are acyclic nodes lowered by the vectorized
    value pass, ``("scc", s)`` units are feedback components lowered by
    the generated epoch kernel ``sccs[s]``.  ``topo`` flattens the
    schedule into one node order for the count-level trace kernel
    (whose plan/commit split makes node order irrelevant, cycles
    included).  ``objs`` and ``wires`` are the captured objects and
    wires themselves, indexed like ``nodes`` and ``edges``: what the
    generated kernels read live state from.
    """

    nodes: list
    edges: list
    objs: tuple         # objs[i] is nodes[i].obj
    wires: tuple        # wires[j] is edges[j].wire
    topo: list          # flat node order (schedule order, SCCs inlined)
    schedule: list      # ("node", i) | ("scc", s) units, topo order
    sccs: list          # non-trivial SCCs: tuples of node indices
    late: frozenset     # RAMs and nodes fed by RAM read data

    def is_late(self, unit) -> bool:
        """Whether a schedule unit's values wait for the trace's RAM
        read stamps (an SCC is late iff its members are)."""
        tag, x = unit
        return (x if tag == "node" else self.sccs[x][0]) in self.late

    def select_edges(self) -> list:
        """Edges whose values the trace kernel peeks at (selects)."""
        return sorted({n.in_edges[0] for n in self.nodes
                       if n.kind in SELECTS})

    def stamp_edges(self) -> list:
        """Read-address edges of RAMs with an enabled read port: the
        trace kernel stamps every read popped off one of them."""
        return [n.in_edges[0] for n in self.nodes
                if n.kind == "ram" and n.in_edges[0] is not None]


def classify(obj) -> str:
    """Kind tag for a supported object, or raise UnsupportedGraphError."""
    kind = KIND_OF.get(type(obj))
    if kind is None:
        raise UnsupportedGraphError(
            f"unsupported object type {type(obj).__name__}",
            node=obj.name, code=REASON_UNSUPPORTED_TYPE)
    if "plan" in obj.__dict__ or "commit" in obj.__dict__:
        # e.g. a fault injector wrapped this instance's firing protocol
        raise UnsupportedGraphError(
            "instance-level plan/commit override",
            node=obj.name, code=REASON_INSTANCE_OVERRIDE)
    if kind == "binary":
        if not obj.inputs[1].bound and obj.const is None:
            raise UnsupportedGraphError(
                "input b unconnected and no const",
                node=obj.name, code=REASON_UNBOUND_INPUT)
        if obj.OPCODE in ("SHL", "SHR"):
            if obj.inputs[1].bound:
                raise UnsupportedGraphError(
                    "data-dependent shift amounts",
                    node=obj.name, code=REASON_DYNAMIC_SHIFT)
            if not 0 <= obj.const <= MAX_SHIFT:
                raise UnsupportedGraphError(
                    f"shift const {obj.const} out of range",
                    node=obj.name, code=REASON_SHIFT_RANGE)
        if abs(obj.shift) > MAX_SHIFT:
            raise UnsupportedGraphError(
                f"result shift {obj.shift} out of range",
                node=obj.name, code=REASON_SHIFT_RANGE)
        if obj.const is not None and abs(obj.const) > MAX_CONST:
            # wrap-width ops survive int64 overflow (mod-2**64 is a
            # homomorphism onto mod-2**bits) but MIN/MAX/CMP* do not,
            # and np.int64() refuses Python ints >= 2**63 outright
            raise UnsupportedGraphError(
                f"const {obj.const} outside the int64-safe range",
                node=obj.name, code=REASON_CONST_RANGE)
    elif kind == "shiftalu":
        if abs(obj.amount) > MAX_SHIFT:
            raise UnsupportedGraphError(
                f"shift amount {obj.amount} out of range",
                node=obj.name, code=REASON_SHIFT_RANGE)
    elif kind == "counter":
        if obj.step < 1:
            raise UnsupportedGraphError(
                "counter step must be >= 1 to compile",
                node=obj.name, code=REASON_COUNTER_STEP)
        if obj.limit is not None and obj.start >= obj.limit:
            raise UnsupportedGraphError(
                "counter start >= limit",
                node=obj.name, code=REASON_COUNTER_RANGE)
    elif kind == "fifo":
        if obj.circular and obj.inputs[0].bound:
            raise UnsupportedGraphError(
                "circular FIFO with a bound input",
                node=obj.name, code=REASON_CIRCULAR_FIFO)
    elif kind in ("acc", "cacc", "integ", "cinteg", "reg", "lut",
                  "unary", "cconj", "cneg", "cmulj", "cshift"):
        if not obj.inputs[0].bound:
            raise UnsupportedGraphError("unbound input", node=obj.name,
                                        code=REASON_UNBOUND_INPUT)
    # a RAM's unbound port just disables its half: nothing to refuse
    if kind in ("cadd", "csub", "cmul", "pack", "mux", "swap",
                "demux", "merge", "gate", "unpack", "sink", "probe"):
        for p in obj.inputs:
            if not p.bound:
                raise UnsupportedGraphError(
                    f"unbound input {p.name}",
                    node=obj.name, code=REASON_UNBOUND_INPUT)
    if kind == "binary" and not obj.inputs[0].bound:
        raise UnsupportedGraphError("unbound input a", node=obj.name,
                                    code=REASON_UNBOUND_INPUT)
    return kind


def _scc_member_order(scc, nodes, edges) -> list:
    """Deterministic firing order inside one SCC for the epoch kernel.

    A Kahn sweep over the component's internal wiring that, when stuck
    (every remaining node waits on a back edge), releases the
    smallest-indexed remaining node — i.e. the minimal deterministic
    back-edge break.  Values are schedule-independent (Kahn network);
    this order only minimizes fixpoint passes in the generated kernel.
    """
    members = set(scc)
    indeg = {i: 0 for i in scc}
    out = {i: [] for i in scc}
    for e in edges:
        if e.src in members and e.dst in members and e.src != e.dst:
            indeg[e.dst] += 1
            out[e.src].append(e.dst)
    remaining = set(scc)
    order = []
    while remaining:
        ready = sorted(i for i in remaining if indeg[i] == 0)
        nxt = ready[0] if ready else min(remaining)
        remaining.discard(nxt)
        order.append(nxt)
        for d in out[nxt]:
            if d in remaining:
                indeg[d] -= 1
    return order


def build_schedule(nodes, edges) -> tuple:
    """(topo, schedule, sccs, late) of the captured wiring.

    ``schedule`` walks the condensation in topological order; trivial
    components become ``("node", i)`` units for the vectorized value
    pass, feedback components (size > 1, or a self-loop) become
    ``("scc", s)`` units lowered by epoch kernels.  ``topo`` is the
    flat node order of the same walk.  RAM write edges do not order
    the walk: a write port is a sink for the value pass.  ``late`` is
    the RAM nodes plus every node their read data reaches.

    Raises :class:`UnsupportedGraphError` when RAM read data reaches a
    select (the trace would depend on memory contents) or loops back
    to a RAM read address (a RAM inside a feedback component).
    """
    out = [[] for _ in nodes]
    for e in edges:
        if not (nodes[e.dst].kind == "ram" and e.dst_port > 0):
            out[e.src].append(e.dst)
    topo = []
    schedule = []
    sccs = []
    for comp in condensation(range(len(nodes)), out):
        if is_feedback(comp, out):
            ordered = _scc_member_order(comp, nodes, edges)
            schedule.append(("scc", len(sccs)))
            sccs.append(tuple(ordered))
            topo.extend(ordered)
        else:
            schedule.append(("node", comp[0]))
            topo.append(comp[0])
    return topo, schedule, sccs, _late_nodes(nodes, edges, sccs, out)


def _late_nodes(nodes, edges, sccs, out) -> frozenset:
    rams = [n.i for n in nodes if n.kind == "ram"]
    if not rams:
        return frozenset()
    for scc in sccs:
        for i in scc:
            if nodes[i].kind == "ram":
                raise UnsupportedGraphError(
                    "RAM read data loops back to a RAM read address",
                    node=nodes[i].obj.name, code=REASON_RAM_CONTROL)
    late = set(rams)
    stack = list(rams)
    while stack:
        for d in out[stack.pop()]:
            if d not in late:
                late.add(d)
                stack.append(d)
    for n in nodes:
        if n.kind in SELECTS and edges[n.in_edges[0]].src in late:
            raise UnsupportedGraphError(
                "select driven by RAM read data", node=n.obj.name,
                code=REASON_RAM_CONTROL)
    return frozenset(late)

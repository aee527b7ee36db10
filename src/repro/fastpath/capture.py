"""Capture the live netlist of a configuration manager into IR.

Walks every resident configuration's objects and wires, resolves each
wire's producer/consumer ports, classifies every object against the
supported-kind table and topologically schedules the result.  The
capture is purely structural — no simulation state is read here; the
runtime reads it live each time it opens a trace session.
"""

from __future__ import annotations

from repro.diagnostics import (
    REASON_DANGLING_WIRE,
    REASON_EMPTY_NETLIST,
    REASON_FAULT_TAP,
    REASON_INSTANCE_OVERRIDE,
)
from repro.fastpath.ir import (
    Edge,
    Graph,
    Node,
    UnsupportedGraphError,
    build_schedule,
    classify,
)


def capture(manager) -> Graph:
    """Build a :class:`Graph` from the manager's active object/wire sets.

    Raises :class:`UnsupportedGraphError` when any resident object,
    parameter or wiring shape falls outside what the compiler can prove.
    """
    return capture_sets(manager.active_objects(), manager.active_wires())


def capture_sets(objs, wires) -> Graph:
    """Capture explicit object/wire sets (the manager-free seam used by
    :meth:`repro.xpp.manager.ConfigurationManager.prefetch` to compile a
    hypothetical post-swap resident set ahead of the swap)."""
    if not objs:
        raise UnsupportedGraphError("no resident configurations",
                                    code=REASON_EMPTY_NETLIST)

    producer = {}       # id(wire) -> (node, port)
    consumer = {}
    for i, o in enumerate(objs):
        for k, p in enumerate(o.inputs):
            if p.wire is not None:
                consumer[id(p.wire)] = (i, k)
        for k, p in enumerate(o.outputs):
            for w in p.wires:
                producer[id(w)] = (i, k)

    edges = []
    for j, w in enumerate(wires):
        src = producer.get(id(w))
        dst = consumer.get(id(w))
        if src is None or dst is None:
            raise UnsupportedGraphError(
                f"wire {w.name}: dangling endpoint",
                code=REASON_DANGLING_WIRE)
        edges.append(Edge(j=j, wire=w, src=src[0], src_port=src[1],
                          dst=dst[0], dst_port=dst[1], cap=w.capacity))

    by_in = {}          # (node, port) -> edge index
    by_out = {}         # (node, port) -> [edge indices]
    for e in edges:
        by_in[(e.dst, e.dst_port)] = e.j
        by_out.setdefault((e.src, e.src_port), []).append(e.j)

    nodes = []
    for i, o in enumerate(objs):
        kind = classify(o)
        in_edges = tuple(by_in.get((i, k)) for k in range(len(o.inputs)))
        out_ports = tuple(tuple(by_out.get((i, k), ()))
                          for k in range(len(o.outputs)))
        nodes.append(Node(i=i, obj=o, kind=kind,
                          in_edges=in_edges, out_ports=out_ports))

    topo, schedule, sccs, late = build_schedule(nodes, edges)
    return Graph(nodes=nodes, edges=edges, objs=tuple(objs),
                 wires=tuple(wires), topo=topo, schedule=schedule,
                 sccs=sccs, late=late)


def check_runtime_state(graph: Graph) -> None:
    """Session-open checks on state the structure capture cannot see:
    fault-injector wire taps appear (and disappear) without a manager
    version bump, so they are re-checked every time a trace opens."""
    for e in graph.edges:
        if e.wire._tap is not None:
            raise UnsupportedGraphError(
                f"wire {e.wire.name}: fault tap installed",
                code=REASON_FAULT_TAP)
    for n in graph.nodes:
        if "plan" in n.obj.__dict__ or "commit" in n.obj.__dict__:
            raise UnsupportedGraphError(
                "instance-level plan/commit override", node=n.obj.name,
                code=REASON_INSTANCE_OVERRIDE)

"""Legality checking: every way a graph can fail to map, as coded diagnostics.

``lint`` is the compiler front end.  It instantiates a prototype array
object for every node (the same constructors the hand-wired kernels
use, so parameter validation is *exactly* the hardware model's), then
checks the graph against the fabric:

* node level    — opcode known, constructor accepts the parameters,
  names unique, RAM sizes within one RAM-PAE;
* edge level    — endpoints exist, ports exist, one driver per input,
  producer/consumer token widths agree, capacities >= 1;
* graph level   — inputs the firing rules wait on are driven, node
  counts fit the array, every feedback loop carries an initial token
  (a REG init or FIFO preload) so it cannot deadlock.

All problems are collected — one compile reports everything at once —
and the prototypes are returned so the emitter can reuse them as the
real configuration objects.
"""

from __future__ import annotations

from repro import diagnostics as d
from repro.diagnostics import Diagnostic
from repro.pnr.place import levelize
from repro.xpp.alu import BinaryAlu, Reg, make_alu, opcodes
from repro.xpp.array import XppArray
from repro.xpp.errors import ConfigurationError
from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.ram import RAM_WORDS, FifoPae, RamPae

#: exceptions a constructor may raise on bad parameters; anything else
#: is a genuine bug and propagates (the fuzz contract covers these).
_CTOR_ERRORS = (ConfigurationError, TypeError, ValueError, OverflowError)


def _instantiate(node, diags: list):
    """Build the prototype object for a node, or None + diagnostics."""
    params = dict(node.params)
    if node.kind in ("op", "const"):
        if node.opcode not in opcodes():
            diags.append(Diagnostic(
                d.PNR_UNKNOWN_OPCODE, f"no such opcode {node.opcode!r}",
                node=node.name))
            return None
        try:
            return make_alu(node.name, node.opcode, **params)
        except _CTOR_ERRORS as exc:
            diags.append(Diagnostic(
                d.PNR_BAD_PARAMS,
                f"{node.opcode} rejected parameters {params!r}: {exc}",
                node=node.name))
            return None
    if node.kind == "in":
        try:
            return StreamSource(node.name, None, **params)
        except _CTOR_ERRORS as exc:
            diags.append(Diagnostic(
                d.PNR_BAD_PARAMS, f"stream rejected {params!r}: {exc}",
                node=node.name))
            return None
    if node.kind == "out":
        try:
            return StreamSink(node.name, **params)
        except _CTOR_ERRORS as exc:
            diags.append(Diagnostic(
                d.PNR_BAD_PARAMS, f"stream rejected {params!r}: {exc}",
                node=node.name))
            return None
    if node.kind == "mem":
        mode = params.pop("mode", "fifo")
        size_key = {"ram": "words", "fifo": "depth"}.get(mode)
        if size_key is None:
            diags.append(Diagnostic(
                d.PNR_BAD_PARAMS, f"mem mode must be 'ram' or 'fifo', "
                f"got {mode!r}", node=node.name))
            return None
        size = params.get(size_key, RAM_WORDS)
        if isinstance(size, int) and not isinstance(size, bool) \
                and not 1 <= size <= RAM_WORDS:
            diags.append(Diagnostic(
                d.PNR_RAM_WORDS,
                f"{size_key}={size} does not fit one RAM-PAE "
                f"(1..{RAM_WORDS} words)", node=node.name))
            params.pop(size_key)    # keep a prototype for port checks
        cls = RamPae if mode == "ram" else FifoPae
        try:
            return cls(node.name, **params)
        except _CTOR_ERRORS as exc:
            diags.append(Diagnostic(
                d.PNR_BAD_PARAMS, f"{mode} rejected {params!r}: {exc}",
                node=node.name))
            return None
    # unreachable via the builder / from_dict, defensive for direct use
    diags.append(Diagnostic(d.PNR_MALFORMED,
                            f"unknown node kind {node.kind!r}",
                            node=node.name))
    return None


def _has_initial_token(proto) -> bool:
    """Does this object inject a token before consuming one?  (What
    breaks the chicken-and-egg deadlock of a feedback loop.)"""
    if isinstance(proto, FifoPae):
        return len(proto) > 0
    if isinstance(proto, Reg):
        return len(proto.init) > 0
    return False


def lint(graph, array: XppArray = None):
    """Check a graph against the fabric.

    Returns ``(protos, diagnostics)`` where ``protos`` maps node name to
    its prototype array object (only nodes that instantiated cleanly)
    and ``diagnostics`` lists every legality problem found.  Never
    raises on graph content — the caller decides whether diagnostics
    are fatal.
    """
    if array is None:
        array = XppArray()
    diags: list[Diagnostic] = []

    if not graph.nodes:
        diags.append(Diagnostic(d.PNR_EMPTY_GRAPH, "graph has no nodes"))
        return {}, diags

    # -- nodes -----------------------------------------------------------------
    protos: dict = {}
    seen: set = set()
    for node in graph.nodes:
        if node.name in seen:
            diags.append(Diagnostic(
                d.PNR_DUPLICATE_NODE,
                f"node name {node.name!r} used more than once",
                node=node.name))
            continue
        seen.add(node.name)
        proto = _instantiate(node, diags)
        if proto is not None:
            protos[node.name] = proto

    # -- resource capacity ------------------------------------------------------
    demand = {"alu": 0, "ram": 0, "io": 0}
    for node in graph.nodes:
        kind = {"op": "alu", "const": "alu", "mem": "ram",
                "in": "io", "out": "io"}.get(node.kind)
        if kind:
            demand[kind] += 1
    for kind, code, what in (("alu", d.PNR_ALU_CAPACITY, "ALU-PAEs"),
                             ("ram", d.PNR_RAM_CAPACITY, "RAM-PAEs"),
                             ("io", d.PNR_IO_CAPACITY, "I/O channels")):
        if demand[kind] > array.capacity(kind):
            diags.append(Diagnostic(
                code, f"graph needs {demand[kind]} {what}, "
                f"{array.name} has {array.capacity(kind)}"))

    # -- edges -----------------------------------------------------------------
    driven: dict = {}     # (node, input index) -> first driving edge label
    for edge in graph.edges:
        ok = True
        for end, role in ((edge.src, "source"), (edge.dst, "dest")):
            if end.node not in protos:
                ok = False
                if not any(n.name == end.node for n in graph.nodes):
                    diags.append(Diagnostic(
                        d.PNR_UNKNOWN_NODE,
                        f"edge {role} references unknown node "
                        f"{end.node!r}", edge=edge.label))
                # node exists but failed to instantiate: already reported
        if edge.capacity is not None and edge.capacity < 1:
            diags.append(Diagnostic(
                d.PNR_WIRE_CAPACITY,
                f"capacity {edge.capacity} below the hardware minimum "
                f"of 1 token register", edge=edge.label))
        if not ok:
            continue
        src_proto, dst_proto = protos[edge.src.node], protos[edge.dst.node]
        try:
            src_proto.out_port(edge.src.port)
        except KeyError:
            diags.append(Diagnostic(
                d.PNR_UNKNOWN_PORT,
                f"{edge.src.node} has no output port {edge.src.port!r}",
                edge=edge.label))
            ok = False
        try:
            in_port = dst_proto.in_port(edge.dst.port)
        except KeyError:
            diags.append(Diagnostic(
                d.PNR_UNKNOWN_PORT,
                f"{edge.dst.node} has no input port {edge.dst.port!r}",
                edge=edge.label))
            ok = False
        if not ok:
            continue
        in_idx = next(i for i, p in enumerate(dst_proto.inputs)
                      if p is in_port)
        key = (edge.dst.node, in_idx)
        if key in driven:
            diags.append(Diagnostic(
                d.PNR_DOUBLE_DRIVEN,
                f"{edge.dst.node}.{in_port.name or in_idx} already driven "
                f"by {driven[key]}", edge=edge.label))
        else:
            driven[key] = edge.label
        src_bits = getattr(src_proto, "bits", None)
        dst_bits = getattr(dst_proto, "bits", None)
        if src_bits is not None and dst_bits is not None \
                and src_bits != dst_bits:
            diags.append(Diagnostic(
                d.PNR_WIDTH_MISMATCH,
                f"{edge.src.node} produces {src_bits}-bit tokens, "
                f"{edge.dst.node} consumes {dst_bits}-bit tokens",
                edge=edge.label))

    # -- undriven inputs (mirrors Configuration.validate) ------------------------
    for node in graph.nodes:
        proto = protos.get(node.name)
        if proto is None or isinstance(proto, (RamPae, FifoPae)):
            continue    # RAM/FIFO ports are optional by design
        if isinstance(proto, StreamSource):
            continue
        for i, port in enumerate(proto.inputs):
            if (node.name, i) in driven:
                continue
            if isinstance(proto, BinaryAlu) and port.name == "b" \
                    and proto.const is not None:
                continue    # register constant stands in for input b
            diags.append(Diagnostic(
                d.PNR_UNDRIVEN_INPUT,
                f"input {port.name or i} is unconnected but the firing "
                f"rule waits on it", node=node.name))

    # -- feedback loops must carry an initial token ------------------------------
    _, cyclic = levelize(graph)
    for members in cyclic:
        if not any(_has_initial_token(protos[m]) for m in members
                   if m in protos):
            diags.append(Diagnostic(
                d.PNR_DEADLOCK_CYCLE,
                f"feedback loop {{{', '.join(members)}}} has no initial "
                f"token (REG init or FIFO preload) and can never fire"))

    return protos, diags

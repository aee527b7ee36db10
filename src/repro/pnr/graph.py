"""The kernel DSL: declarative operator graphs for the array.

A :class:`KernelGraph` describes a kernel the way the paper's Fig. 5/6
schematics do — operators and the streams between them — in about a
page of Python, without touching placement, wiring or the simulator:

    g = KernelGraph("descrambler")
    code = g.stream_in("code")
    data = g.stream_in("data", bits=24)
    lut  = g.op("LUT", name="code_mux", table=[...])
    cmul = g.op("CMUL", name="descramble_mul", shift=1)
    out  = g.stream_out("out")
    g.connect(code, lut)
    g.connect(lut, cmul["b"])
    g.connect(data, cmul["a"])
    g.connect(cmul, out)

Node kinds:

* ``op``    — one ALU-PAE operation, any opcode of
  :func:`repro.xpp.alu.opcodes` with its constructor parameters;
* ``const`` — sugar for an ``op`` running ``CONST`` (a PAE register
  constant generator);
* ``in`` / ``out`` — external streams (I/O channels), 12/12-bit packed
  complex or 24-bit scalar via ``bits``;
* ``mem``   — a RAM-PAE, ``mode="ram"`` or ``mode="fifo"``.

Building never raises: all validation happens in the compiler
(:mod:`repro.pnr.check`), which reports *every* problem as coded
diagnostics — so hostile graphs loaded from JSON corpora flow through
the same path as hand-written ones.  ``to_dict``/``from_dict`` give a
stable JSON form used by the fuzz corpus and the golden artifacts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.diagnostics import PNR_MALFORMED, Diagnostic
from repro.pnr.diag import PnrError

#: node kinds a graph may contain
NODE_KINDS = ("op", "const", "in", "out", "mem")

_PORT_INDEX_RE = re.compile(r"(?:in|out)(\d+)$")


def port_key(token: Any):
    """Normalise a port reference: ints pass through, ``in0``/``out2``
    style names become indices, anything else is a port name."""
    if isinstance(token, bool):
        return int(token)
    if isinstance(token, int):
        return token
    if isinstance(token, str):
        m = _PORT_INDEX_RE.fullmatch(token)
        if m:
            return int(m.group(1))
        if token.isdigit():
            return int(token)
    return token


@dataclass(frozen=True)
class PortRef:
    """A ``node.port`` endpoint reference (port by index or name)."""

    node: str
    port: Any = 0

    def __str__(self) -> str:
        return f"{self.node}.{self.port}"


class NodeRef:
    """Handle returned by the builder methods; indexable by port."""

    __slots__ = ("graph", "name")

    def __init__(self, graph: "KernelGraph", name: str):
        self.graph = graph
        self.name = name

    def __getitem__(self, port) -> PortRef:
        return PortRef(self.name, port_key(port))

    def port(self, port) -> PortRef:
        return self[port]

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return f"<NodeRef {self.name}>"


@dataclass
class Node:
    """One declarative node: kind, name, opcode (ops only), parameters."""

    kind: str
    name: str
    opcode: Optional[str] = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "name": self.name}
        if self.opcode is not None:
            d["opcode"] = self.opcode
        if self.params:
            d["params"] = dict(self.params)
        return d


@dataclass
class Edge:
    """A directed connection ``src.port -> dst.port``.

    ``capacity=None`` means "infer": the router assigns the hardware
    default slack (or balanced slack, see
    :func:`repro.pnr.route.infer_capacities`).  An explicit capacity is
    a register-balancing annotation and is honoured verbatim.
    """

    src: PortRef
    dst: PortRef
    capacity: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.src}->{self.dst}"

    def to_dict(self) -> dict:
        d: dict = {"src": str(self.src), "dst": str(self.dst)}
        if self.capacity is not None:
            d["capacity"] = self.capacity
        return d


class KernelGraph:
    """A named operator graph, the unit the compiler consumes."""

    def __init__(self, name: str):
        self.name = str(name)
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self._auto = 0

    # -- builder API -----------------------------------------------------------

    def _name(self, prefix: str, name: Optional[str]) -> str:
        if name is not None:
            return str(name)
        self._auto += 1
        return f"{prefix}{self._auto}"

    def _add(self, kind: str, name: str, opcode: Optional[str] = None,
             **params) -> NodeRef:
        self.nodes.append(Node(kind=kind, name=name, opcode=opcode,
                               params=params))
        return NodeRef(self, name)

    def op(self, opcode: str, name: Optional[str] = None, **params) -> NodeRef:
        """An ALU-PAE operation by opcode name."""
        return self._add("op", self._name(str(opcode).lower(), name),
                         opcode=str(opcode), **params)

    def const(self, value: int, name: Optional[str] = None,
              **params) -> NodeRef:
        """A constant generator (an ALU-PAE register constant)."""
        return self._add("const", self._name("const", name),
                         opcode="CONST", value=value, **params)

    def stream_in(self, name: str, *, bits: int = 24) -> NodeRef:
        """An external input stream (I/O channel)."""
        return self._add("in", str(name), bits=bits)

    def stream_out(self, name: str, *,
                   expect: Optional[int] = None) -> NodeRef:
        """An external output stream (I/O channel)."""
        params = {} if expect is None else {"expect": expect}
        return self._add("out", str(name), **params)

    def mem(self, name: Optional[str] = None, *, mode: str = "fifo",
            **params) -> NodeRef:
        """A RAM-PAE: ``mode="fifo"`` (depth/preload/circular) or
        ``mode="ram"`` (words/preload)."""
        return self._add("mem", self._name(mode, name), mode=mode, **params)

    def connect(self, src, dst, *, capacity: Optional[int] = None) -> Edge:
        """Connect two endpoints; a bare :class:`NodeRef` means port 0."""
        edge = Edge(src=self._endpoint(src), dst=self._endpoint(dst),
                    capacity=capacity)
        self.edges.append(edge)
        return edge

    def chain(self, *refs, capacity: Optional[int] = None) -> None:
        """Connect ``refs[i] -> refs[i+1]`` along the list (port 0)."""
        for a, b in zip(refs, refs[1:]):
            self.connect(a, b, capacity=capacity)

    @staticmethod
    def _endpoint(ref) -> PortRef:
        if isinstance(ref, PortRef):
            return ref
        if isinstance(ref, NodeRef):
            return PortRef(ref.name, 0)
        if isinstance(ref, str):
            node, _, port = ref.partition(".")
            return PortRef(node, port_key(port) if port else 0)
        raise TypeError(f"not a node or port reference: {ref!r}")

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"{self.name}: no node named {name!r}")

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [n.to_dict() for n in self.nodes],
            "edges": [e.to_dict() for e in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "KernelGraph":
        """Rebuild a graph from its JSON form.

        Tolerates hostile payloads: any structural problem raises
        :class:`PnrError` with a ``malformed-graph`` diagnostic —
        semantic problems (unknown opcodes, bad parameters ...) are
        left for the compiler so corpus entries exercise the checker.
        """
        def bad(msg: str) -> PnrError:
            return PnrError([Diagnostic(PNR_MALFORMED, msg)])

        if not isinstance(payload, dict):
            raise bad(f"graph payload must be an object, "
                      f"got {type(payload).__name__}")
        name = payload.get("name", "graph")
        if not isinstance(name, str):
            raise bad("graph name must be a string")
        g = cls(name)
        nodes = payload.get("nodes", [])
        edges = payload.get("edges", [])
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise bad("nodes/edges must be lists")
        for entry in nodes:
            if not isinstance(entry, dict):
                raise bad(f"node entry must be an object: {entry!r}")
            kind = entry.get("kind")
            nname = entry.get("name")
            if kind not in NODE_KINDS:
                raise bad(f"unknown node kind {kind!r}")
            if not isinstance(nname, str) or not nname:
                raise bad(f"node name must be a non-empty string: {nname!r}")
            params = entry.get("params", {})
            if not isinstance(params, dict) or \
                    not all(isinstance(k, str) for k in params):
                raise bad(f"params of {nname!r} must be a string-keyed "
                          f"object")
            opcode = entry.get("opcode")
            if kind in ("op", "const") and not isinstance(opcode, str):
                raise bad(f"node {nname!r} needs a string opcode")
            g.nodes.append(Node(kind=kind, name=nname, opcode=opcode,
                                params=dict(params)))
        for entry in edges:
            if not isinstance(entry, dict):
                raise bad(f"edge entry must be an object: {entry!r}")
            src, dst = entry.get("src"), entry.get("dst")
            if not isinstance(src, str) or not isinstance(dst, str):
                raise bad(f"edge endpoints must be strings: {entry!r}")
            cap = entry.get("capacity")
            if cap is not None and (isinstance(cap, bool)
                                    or not isinstance(cap, int)):
                raise bad(f"edge capacity must be an integer: {entry!r}")
            g.edges.append(Edge(src=cls._parse_endpoint(src),
                                dst=cls._parse_endpoint(dst),
                                capacity=cap))
        return g

    @staticmethod
    def _parse_endpoint(text: str) -> PortRef:
        node, sep, port = text.rpartition(".")
        if not sep:
            return PortRef(text, 0)
        return PortRef(node, port_key(port))

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<KernelGraph {self.name!r} {len(self.nodes)} nodes "
                f"{len(self.edges)} edges>")

"""The one registry of compile diagnostic codes and the one compile
report shape for both kernel compilers.

Every way a kernel graph can be rejected has a stable machine-readable
code: a tool (or a test) branches on the code, a human reads the
message.  :data:`CODES` maps each code string to the compiler that
raises it and a one-line description, which ``python -m repro.pnr
codes`` and the table in ``docs/pnr.md`` print.

* ``pnr`` codes (``PNR_*``) are kernel-graph legality problems found by
  the place-and-route pipeline; :mod:`repro.pnr.check` collects all of
  them for a graph as :class:`Diagnostic` records.
* ``fastpath`` codes (``REASON_*``) are netlist shapes the fastpath
  compiler cannot prove; each ``UnsupportedGraphError`` carries one,
  and the fallback warning, :mod:`repro.fastpath.explain` and the
  ``fastpath.fallback.<code>`` metrics counters surface it.

Both compilers describe one compile as a :class:`CompileReport`:
:func:`repro.pnr.report_graph` / ``compile_graph(...).report`` and
:func:`repro.fastpath.explain`, printed by ``python -m repro.pnr
compile`` and ``python -m repro.fastpath explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

PNR = "pnr"
FASTPATH = "fastpath"

#: code -> (compiler that raises it, one-line description)
CODES: dict = {}


def _code(compiler: str, code: str, description: str) -> str:
    CODES[code] = (compiler, description)
    return code


PNR_MALFORMED = _code(PNR, "malformed-graph",
                      "graph payload is not structurally a graph")
PNR_UNKNOWN_OPCODE = _code(PNR, "unknown-opcode",
                           "op names an opcode outside the ALU opcode table")
PNR_BAD_PARAMS = _code(PNR, "bad-params",
                       "node parameters rejected by the object constructor")
PNR_DUPLICATE_NODE = _code(PNR, "duplicate-node", "two nodes share a name")
PNR_UNKNOWN_NODE = _code(PNR, "unknown-node",
                         "edge references a node that does not exist")
PNR_UNKNOWN_PORT = _code(PNR, "unknown-port",
                         "edge references a port its endpoint does not have")
PNR_DOUBLE_DRIVEN = _code(PNR, "double-driven-input",
                          "two edges drive the same input port")
PNR_UNDRIVEN_INPUT = _code(PNR, "undriven-input",
                           "an input the firing rule waits on is unconnected")
PNR_WIDTH_MISMATCH = _code(PNR, "width-mismatch",
                           "producer and consumer disagree on token width")
PNR_WIRE_CAPACITY = _code(PNR, "wire-capacity",
                          "explicit wire capacity below the hardware minimum")
PNR_RAM_WORDS = _code(PNR, "ram-words",
                      "Mem node larger than one RAM-PAE (512 words)")
PNR_ALU_CAPACITY = _code(PNR, "alu-capacity",
                         "more ALU ops than the fabric has ALU-PAEs")
PNR_RAM_CAPACITY = _code(PNR, "ram-capacity",
                         "more Mem nodes than RAM-PAEs in the side columns")
PNR_IO_CAPACITY = _code(PNR, "io-capacity", "more streams than I/O channels")
PNR_DEADLOCK_CYCLE = _code(PNR, "deadlock-cycle",
                           "feedback loop with no initial token")
PNR_ROUTING_TRACKS = _code(PNR, "routing-tracks",
                           "row/column routing tracks exhausted")
PNR_EMPTY_GRAPH = _code(PNR, "empty-graph", "graph has no nodes")

REASON_UNSUPPORTED_TYPE = _code(
    FASTPATH, "unsupported-type",
    "object type outside the compiler's exact-type table")
REASON_INSTANCE_OVERRIDE = _code(
    FASTPATH, "instance-override",
    "object overrides plan/commit on the instance")
REASON_UNBOUND_INPUT = _code(
    FASTPATH, "unbound-input", "an input the firing rule reads is unbound")
REASON_DYNAMIC_SHIFT = _code(
    FASTPATH, "dynamic-shift", "shift amount comes from a wire")
REASON_SHIFT_RANGE = _code(
    FASTPATH, "shift-range", "shift outside the int64-exact range")
REASON_CONST_RANGE = _code(
    FASTPATH, "const-range", "binary-op constant outside the int64-safe range")
REASON_COUNTER_STEP = _code(
    FASTPATH, "counter-step", "counter step below 1")
REASON_COUNTER_RANGE = _code(
    FASTPATH, "counter-range", "counter start at or above its limit")
REASON_CIRCULAR_FIFO = _code(
    FASTPATH, "circular-fifo-input", "circular FIFO with a bound input")
REASON_EMPTY_NETLIST = _code(
    FASTPATH, "empty-netlist", "no resident configurations")
REASON_DANGLING_WIRE = _code(
    FASTPATH, "dangling-wire", "wire without a producer or a consumer port")
REASON_FAULT_TAP = _code(
    FASTPATH, "fault-tap", "fault-injector tap installed on a wire")
REASON_RAM_CONTROL = _code(
    FASTPATH, "ram-control",
    "RAM read data reaches a select or loops back to a RAM read address")


#: the codes each compiler raises, in registry order
PNR_CODES = tuple(c for c, (who, _) in CODES.items() if who == PNR)
REASON_CODES = tuple(c for c, (who, _) in CODES.items() if who == FASTPATH)


@dataclass
class Diagnostic:
    """One legality problem, attributed to a node or edge when known."""

    code: str
    message: str
    node: Optional[str] = None      # offending node name
    edge: Optional[str] = None      # offending edge as "src.port->dst.port"

    def to_dict(self) -> dict:
        d = {"code": self.code, "message": self.message}
        if self.node is not None:
            d["node"] = self.node
        if self.edge is not None:
            d["edge"] = self.edge
        return d

    def __str__(self) -> str:
        where = self.node or self.edge
        loc = f" at {where}" if where else ""
        return f"[{self.code}]{loc}: {self.message}"


@dataclass
class CompileReport:
    """What one compile of a kernel graph found, for either compiler.

    ``kinds`` counts the graph's nodes per kind tag; ``details`` holds
    the facts only one compiler has (pnr: pipeline levels, wire
    capacities, routing; fastpath: SCC members, cache outlook, trace
    length).  A rejected compile carries every problem found as a
    :class:`Diagnostic`.
    """

    compiler: str                   # PNR | FASTPATH
    name: str
    ok: bool = False
    diagnostics: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)       # node kind -> count
    n_nodes: int = 0
    n_edges: int = 0
    details: dict = field(default_factory=dict)
    timings_s: dict = field(default_factory=dict)   # phase -> seconds

    @property
    def codes(self) -> list:
        """Distinct diagnostic codes, sorted (empty when ok)."""
        return sorted({d.code for d in self.diagnostics})

    def to_dict(self) -> dict:
        return {
            "compiler": self.compiler,
            "name": self.name,
            "ok": self.ok,
            "codes": self.codes,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "kinds": dict(sorted(self.kinds.items())),
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "details": dict(self.details),
            "timings_s": {k: round(v, 6) for k, v in self.timings_s.items()},
        }

    def render(self) -> str:
        """One-screen text; mapping-valued details appear only in JSON."""
        verdict = "compiles" if self.ok else \
            f"rejected [{', '.join(self.codes)}]"
        kinds = ", ".join(f"{k}×{n}" for k, n in sorted(self.kinds.items()))
        lines = [f"{self.compiler}: {self.name} {verdict}",
                 f"  graph: {self.n_nodes} nodes, {self.n_edges} edges"
                 + (f" ({kinds})" if kinds else "")]
        lines += [f"  {d}" for d in self.diagnostics]
        lines += [f"  {k}: {_show(v)}" for k, v in self.details.items()
                  if not isinstance(v, dict)]
        if self.timings_s:
            per = ", ".join(f"{k} {v * 1e3:.2f}ms"
                            for k, v in self.timings_s.items())
            lines.append(f"  phases: {per}")
        return "\n".join(lines)


def _show(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)

"""Kernel DSL + place-and-route compiler for the array (ROADMAP item 2).

The paper's design-productivity claim is that kernels are *mapped*,
not hand-wired.  This package closes that gap for the reproduction:

* :mod:`repro.pnr.graph` — a declarative operator-graph DSL
  (:class:`KernelGraph`: ``op`` / ``const`` / ``stream_in`` /
  ``stream_out`` / ``mem`` nodes over the existing ALU opcode table);
* :mod:`repro.pnr.check` — legality checks against the fabric, every
  problem a coded :class:`Diagnostic`;
* :mod:`repro.pnr.place` — deterministic levelized placement onto the
  8x8 ALU fabric + RAM columns;
* :mod:`repro.pnr.route` — Manhattan track accounting and FIFO-depth
  (wire capacity) inference;
* :mod:`repro.pnr.compile` — the pipeline, emitting the exact
  :class:`~repro.xpp.config.Configuration` objects the
  :class:`~repro.xpp.manager.ConfigurationManager` loads, and its
  :class:`~repro.diagnostics.CompileReport`.

``python -m repro.pnr compile`` wraps the pipeline for the command
line; :mod:`repro.kernels.dsl` re-expresses the descrambler and
despreader in the DSL, conformance-tested bit-exact against the
hand-wired configurations.
"""

from repro.pnr.compile import (
    CompiledKernel,
    compile_graph,
    emit_config,
    report_graph,
)
from repro.pnr.check import lint
from repro.diagnostics import PNR_CODES, Diagnostic
from repro.pnr.diag import PnrError
from repro.pnr.graph import Edge, KernelGraph, Node, NodeRef, PortRef
from repro.pnr.place import Placement, levelize, place
from repro.pnr.route import RoutingResult, infer_capacities, route_placement

__all__ = [
    "CompiledKernel",
    "Diagnostic",
    "Edge",
    "KernelGraph",
    "Node",
    "NodeRef",
    "PNR_CODES",
    "Placement",
    "PnrError",
    "PortRef",
    "RoutingResult",
    "compile_graph",
    "emit_config",
    "infer_capacities",
    "levelize",
    "lint",
    "place",
    "report_graph",
    "route_placement",
]

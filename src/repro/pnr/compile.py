"""The compile pipeline: lint -> place -> route -> emit.

:func:`compile_graph` turns a :class:`~repro.pnr.graph.KernelGraph`
into exactly what the hand-wired kernels produce — a
:class:`~repro.xpp.config.Configuration` the
:class:`~repro.xpp.manager.ConfigurationManager` loads unmodified —
plus the placement plan and a
:class:`~repro.diagnostics.CompileReport` (the report shape the
fastpath's ``explain`` shares) whose ``details`` carry the pipeline
levels, wire capacities and routing.

An illegal graph raises :class:`~repro.pnr.diag.PnrError` carrying
*every* diagnostic the checker found and the report;
:func:`report_graph` returns that report instead of raising, for
tooling and the ``python -m repro.pnr`` CLI.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from repro.diagnostics import PNR, CompileReport
from repro.pnr.check import lint
from repro.pnr.diag import PnrError
from repro.pnr.graph import KernelGraph
from repro.pnr.place import Placement, place
from repro.pnr.route import infer_capacities, route_placement
from repro.xpp.array import XppArray
from repro.xpp.config import Configuration


@dataclass
class CompiledKernel:
    """Everything one compile produced."""

    graph: KernelGraph
    config: Configuration
    placement: Placement
    report: CompileReport


def emit_config(graph: KernelGraph, protos: dict,
                capacities: dict) -> Configuration:
    """Lower a linted graph to a runnable Configuration.

    Reuses the checker's prototype objects directly — they were built
    by the exact constructors the hand-wired kernels call, never fired,
    and carry the node's name — so a DSL kernel's objects are
    indistinguishable from hand-wired ones.
    """
    cfg = Configuration(graph.name)
    for node in graph.nodes:        # declaration order == load claim order
        cfg.add(protos[node.name])
    for edge in graph.edges:
        cfg.connect(protos[edge.src.node], edge.src.port,
                    protos[edge.dst.node], edge.dst.port,
                    capacity=capacities[edge.label])
    cfg.validate()
    return cfg


def compile_graph(graph: KernelGraph, *, array: XppArray = None,
                  balance: bool = False) -> CompiledKernel:
    """Compile a kernel graph down to a loadable configuration.

    Raises :class:`PnrError` with the full diagnostic list and the
    report when the graph is illegal; otherwise returns the
    :class:`CompiledKernel` whose ``config`` has placement hints
    attached (``config.placement``) for the manager to honour.
    """
    if array is None:
        array = XppArray()
    report = CompileReport(PNR, graph.name, n_nodes=len(graph.nodes),
                           n_edges=len(graph.edges),
                           kinds=dict(Counter(n.kind for n in graph.nodes)))

    t0 = time.perf_counter()
    protos, diags = lint(graph, array)
    report.timings_s["lint"] = time.perf_counter() - t0
    if diags:
        report.diagnostics = diags
        raise PnrError(diags, report)

    t0 = time.perf_counter()
    placement = place(graph, array)
    report.timings_s["place"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    capacities = infer_capacities(graph, balance=balance)
    routing, route_diags = route_placement(graph, placement)
    report.timings_s["route"] = time.perf_counter() - t0
    deep = [f"{label} = {c}" for label, c in sorted(capacities.items())
            if c > 2]
    report.details = {
        "levels": max(placement.levels.values(), default=-1) + 1,
        "capacities": dict(sorted(capacities.items())),
        "routing": routing.to_dict(),
        "route_segments": routing.total_segments,
        "track_use": f"{routing.max_row_utilization:.0%} row / "
                     f"{routing.max_col_utilization:.0%} col",
    }
    if deep:
        report.details["deep_fifos"] = deep
    if route_diags:
        report.diagnostics = route_diags
        raise PnrError(route_diags, report)

    t0 = time.perf_counter()
    config = emit_config(graph, protos, capacities)
    config.placement = placement
    report.timings_s["emit"] = time.perf_counter() - t0

    report.ok = True
    return CompiledKernel(graph=graph, config=config, placement=placement,
                          report=report)


def report_graph(graph: KernelGraph, *, array: XppArray = None,
                 balance: bool = False) -> CompileReport:
    """:func:`compile_graph` without raising: always returns the report."""
    try:
        return compile_graph(graph, array=array, balance=balance).report
    except PnrError as exc:
        return exc.report

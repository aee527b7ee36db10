"""Routing and FIFO-depth inference for placed kernel graphs.

Two concerns live here:

**Wire capacities.**  Every link needs at least the hardware slack of
:data:`~repro.xpp.port.DEFAULT_CAPACITY` (forward + shadow register);
the handshake protocol means tokens are never lost regardless of
capacity — a shallow FIFO only stalls the producer, it cannot
overflow.  Inference therefore defaults every unannotated edge to the
hardware slack and honours explicit ``capacity=`` annotations verbatim
(they are register-balancing decisions, e.g. the despreader's depth-8
select wires).  ``balance=True`` additionally grants reconvergent
edges extra slack for the pipeline-level skew between their endpoints,
which shortens warm-up stalls on wide graphs.

**Track accounting.**  The placed graph is routed with the same
Manhattan L-path model the :class:`~repro.xpp.router.Router` applies
at load time, and rows/columns whose segment usage exceeds the track
capacity are reported as ``routing-tracks`` diagnostics (all of them,
not just the first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics import PNR_ROUTING_TRACKS, Diagnostic
from repro.pnr.place import levelize
from repro.xpp.port import DEFAULT_CAPACITY
from repro.xpp.router import Router


def infer_capacities(graph, *, balance: bool = False) -> dict:
    """Wire capacity per edge, keyed by edge label.

    Explicit annotations pass through untouched; unannotated edges get
    the hardware default, plus — with ``balance=True`` — one extra
    register per pipeline level the edge skips across, so tokens on a
    short reconvergent path don't stall its producer while the long
    path fills.
    """
    levels, _ = levelize(graph) if balance else ({}, None)
    caps: dict = {}
    for edge in graph.edges:
        if edge.capacity is not None:
            caps[edge.label] = edge.capacity
            continue
        slack = DEFAULT_CAPACITY
        if balance:
            skew = (levels.get(edge.dst.node, 0)
                    - levels.get(edge.src.node, 0) - 1)
            slack += max(0, skew)
        caps[edge.label] = slack
    return caps


@dataclass
class RoutingResult:
    """Per-edge Manhattan lengths plus aggregate track usage."""

    lengths: dict = field(default_factory=dict)
    total_segments: int = 0
    max_row_utilization: float = 0.0
    max_col_utilization: float = 0.0

    def to_dict(self) -> dict:
        return {
            "lengths": dict(sorted(self.lengths.items())),
            "total_segments": self.total_segments,
            "max_row_utilization": round(self.max_row_utilization, 4),
            "max_col_utilization": round(self.max_col_utilization, 4),
        }


def route_placement(graph, placement, *, tracks_per_row: int = None,
                    tracks_per_col: int = None):
    """Route every edge over the placement; returns
    ``(RoutingResult, diagnostics)`` with one ``routing-tracks``
    diagnostic per exhausted row/column."""
    router_kw = {}
    if tracks_per_row is not None:
        router_kw["tracks_per_row"] = tracks_per_row
    if tracks_per_col is not None:
        router_kw["tracks_per_col"] = tracks_per_col
    router = Router(**router_kw)     # non-strict: account first, judge after

    result = RoutingResult()
    for i, edge in enumerate(graph.edges):
        # distinct key per edge: parallel edges must each burn tracks
        length = router.route(f"{i}:{edge.label}",
                              placement.position(edge.src.node),
                              placement.position(edge.dst.node))
        result.lengths[edge.label] = length
    util = router.utilization()
    result.total_segments = util["total_segments"]
    result.max_row_utilization = util["max_row_utilization"]
    result.max_col_utilization = util["max_col_utilization"]

    diags = []
    for row, used in sorted(router.row_usage.items()):
        if used > router.tracks_per_row:
            diags.append(Diagnostic(
                PNR_ROUTING_TRACKS,
                f"row {row} needs {used} horizontal segments, has "
                f"{router.tracks_per_row} tracks"))
    for col, used in sorted(router.col_usage.items()):
        if used > router.tracks_per_col:
            diags.append(Diagnostic(
                PNR_ROUTING_TRACKS,
                f"column {col} needs {used} vertical segments, has "
                f"{router.tracks_per_col} tracks"))
    return result, diags

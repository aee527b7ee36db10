"""Deterministic placement of kernel graphs onto the array.

Placement is a pure function of the graph: the same graph always lands
on the same PAEs, so placements can be committed as golden artifacts
and compared structurally across refactors.

The strategy follows how the hand-wired kernels are laid out in
practice:

1. **Levelize.**  Collapse feedback loops (strongly connected
   components, found by the shared :mod:`repro.graphcore`) into single
   super-nodes, then compute longest-path levels over the resulting
   DAG.  The level of a node is its pipeline depth from the inputs.
2. **Place ALU ops one column per level.**  Dataflow runs left to
   right across the array — level ℓ lands in column ℓ, mirroring the
   paper's Fig. 5/6 mappings — with rows staggered per level so
   consecutive producer/consumer pairs sit on a short diagonal instead
   of stacking every level's first node on row 0 (the horizontal leg
   of the Manhattan route burns tracks on the *source* row, so
   spreading source rows spreads track load).  Overfull levels and
   graphs deeper than the fabric spill deterministically to the
   nearest free slot.
3. **Place Mem and stream nodes on the nearer side.**  Each RAM-PAE
   goes to the column (col -1 or col 8) closer to the mean column of
   the ALUs it talks to; I/O streams likewise pick the closer edge.

The result is a :class:`Placement` of *hints*: at load time the
:class:`~repro.xpp.manager.ConfigurationManager` honours them when the
slot is free and silently falls back to first-fit when another
resident configuration already owns it (placement must never make a
load fail that first-fit would have satisfied).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphcore import condensation, is_feedback
from repro.xpp.array import XppArray

#: graph node kind -> array slot kind
KIND_TO_SLOT = {"op": "alu", "const": "alu", "in": "io", "out": "io",
                "mem": "ram"}


def levelize(graph):
    """Longest-path pipeline level per node, feedback loops collapsed.

    Returns ``(levels, sccs)`` where ``levels`` maps every node name to
    its depth (all members of a feedback loop share one level) and
    ``sccs`` is the list of non-trivial (cyclic) components — including
    single nodes with a self-loop.
    """
    names = [n.name for n in graph.nodes]
    known = set(names)
    adjacency: dict = {name: [] for name in names}
    for e in graph.edges:
        if e.src.node in known and e.dst.node in known:
            adjacency[e.src.node].append(e.dst.node)

    components = condensation(names, adjacency)
    comp_of = {m: i for i, members in enumerate(components) for m in members}
    comp_level = [0] * len(components)
    for i, members in enumerate(components):    # producers first
        for src in members:
            for dst in adjacency[src]:
                j = comp_of[dst]
                if j != i:
                    comp_level[j] = max(comp_level[j], comp_level[i] + 1)

    levels = {name: comp_level[comp_of[name]] for name in names}
    # sinks first: the order deadlock-cycle diagnostics are reported in
    cyclic = [list(members) for members in reversed(components)
              if is_feedback(members, adjacency)]
    return levels, cyclic


# -- placement ---------------------------------------------------------------------


@dataclass
class Placement:
    """Where every node of a compiled kernel should land on the array.

    ``slots`` maps node name to ``(kind, row, col)``; ``levels`` records
    the pipeline depth the placer derived (kept for diagnostics and the
    golden artifacts — area/power accounting reads positions from here).
    """

    graph_name: str
    array_name: str
    slots: dict = field(default_factory=dict)
    levels: dict = field(default_factory=dict)

    def position(self, node_name: str):
        """``(row, col)`` of a placed node, or None if unknown."""
        entry = self.slots.get(node_name)
        if entry is None:
            return None
        return (entry[1], entry[2])

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "array": self.array_name,
            "slots": {name: {"kind": kind, "row": row, "col": col}
                      for name, (kind, row, col) in sorted(self.slots.items())},
            "levels": {name: level
                       for name, level in sorted(self.levels.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Placement":
        p = cls(graph_name=payload["graph"], array_name=payload["array"])
        for name, entry in payload["slots"].items():
            p.slots[name] = (entry["kind"], entry["row"], entry["col"])
        p.levels = {name: int(level)
                    for name, level in payload.get("levels", {}).items()}
        return p


def place(graph, array: XppArray = None) -> Placement:
    """Deterministically assign every node a physical slot.

    Assumes the graph already passed the legality checks (node counts
    within capacity); with more nodes than slots the surplus is simply
    not placed — :mod:`repro.pnr.check` reports that case as a
    capacity diagnostic before placement runs.
    """
    if array is None:
        array = XppArray()
    levels, _ = levelize(graph)
    placement = Placement(graph_name=graph.name, array_name=array.name,
                          levels=dict(levels))

    order = {n.name: i for i, n in enumerate(graph.nodes)}
    alus = [n for n in graph.nodes if KIND_TO_SLOT.get(n.kind) == "alu"]
    mems = [n for n in graph.nodes if KIND_TO_SLOT.get(n.kind) == "ram"]
    ios = [n for n in graph.nodes if KIND_TO_SLOT.get(n.kind) == "io"]

    # 1. ALUs: column = pipeline level, rows staggered by level so the
    # horizontal route legs (charged to the source row) spread out.
    rows, cols = array.alu_rows, array.alu_cols
    used: set = set()

    def take(pref_row: int, pref_col: int):
        for dc in range(cols):
            c = (pref_col + dc) % cols
            for dr in range(rows):
                r = (pref_row + dr) % rows
                if (r, c) not in used:
                    used.add((r, c))
                    return r, c
        return None

    by_level: dict = {}
    for node in sorted(alus, key=lambda n: (levels[n.name], order[n.name])):
        level = levels[node.name]
        idx = by_level.get(level, 0)
        by_level[level] = idx + 1
        pos = take((level + idx) % rows, level % cols)
        if pos is None:
            continue    # over capacity: reported by the checker, not here
        placement.slots[node.name] = ("alu", pos[0], pos[1])

    # 2./3. Mems and streams: pick the side nearer the placed ALU
    # neighbours, filling that side's rows top-down.
    def neighbour_cols(names: set) -> dict:
        found: dict = {name: [] for name in names}
        for e in graph.edges:
            for me, other in ((e.src.node, e.dst.node),
                              (e.dst.node, e.src.node)):
                if me in found:
                    pos = placement.position(other)
                    if pos is not None:
                        found[me].append(pos[1])
        return found

    for nodes, kind, left_col, right_col in (
            (mems, "ram", -1, array.alu_cols),
            (ios, "io", -2, array.alu_cols + 1)):
        pools = {side: sorted((s for s in array.slots[kind]
                               if s.col == side), key=lambda s: s.row)
                 for side in (left_col, right_col)}
        cols_of = neighbour_cols({n.name for n in nodes})
        for node in sorted(nodes, key=lambda n: order[n.name]):
            near = cols_of[node.name]
            mean_col = (sum(near) / len(near)) if near else 0.0
            side = left_col if mean_col < (array.alu_cols - 1) / 2 \
                else right_col
            other = right_col if side == left_col else left_col
            pool = pools[side] or pools[other]
            if not pool:
                continue    # over capacity: reported by the checker
            slot = pool.pop(0)
            placement.slots[node.name] = (slot.kind, slot.row, slot.col)

    return placement

"""Tests for the shared graph core (:mod:`repro.graphcore`).

Both kernel compilers read their feedback structure from it: the pnr
placer levels the condensation, the fastpath backend schedules it.
The property layer holds :func:`condensation` to a brute-force
mutual-reachability oracle; the pins hold the fastpath schedule of two
real kernels to one exact, deterministic epoch order.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import capture
from repro.graphcore import condensation, is_feedback
from repro.kernels import build_despreader_config
from repro.kernels.rake_chain import build_rake_chain_config
from repro.xpp.manager import ConfigurationManager


@st.composite
def digraphs(draw):
    """``(n, edges)`` with self-loops, parallel edges and isolated nodes."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges


def _successors(n, edges):
    out = [[] for _ in range(n)]
    for src, dst in edges:
        out[src].append(dst)
    return out


def _reachable(out, start):
    """Nodes reachable from ``start`` by a path of zero or more edges."""
    seen = {start}
    todo = [start]
    while todo:
        for w in out[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_condensation_matches_mutual_reachability(graph):
    n, edges = graph
    out = _successors(n, edges)
    reach = [_reachable(out, v) for v in range(n)]
    oracle = {tuple(sorted(w for w in range(n)
                           if w in reach[v] and v in reach[w]))
              for v in range(n)}
    components = condensation(range(n), out)
    assert sorted(components) == sorted(oracle)
    assert len(components) == len(oracle)   # each exactly once
    for comp in components:
        # a feedback loop is a non-empty cycle through the component
        cyclic = any(comp[0] in reach[w] for w in out[comp[0]])
        assert is_feedback(comp, out) == cyclic


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_components_come_out_in_topological_order(graph):
    n, edges = graph
    out = _successors(n, edges)
    components = condensation(range(n), out)
    position = {v: i for i, comp in enumerate(components) for v in comp}
    for src, dst in edges:
        assert position[src] <= position[dst]


def test_named_nodes_and_self_loop():
    succ = {"acc": ["acc", "out"], "in": ["acc"], "out": [], "lone": []}
    components = condensation(["in", "acc", "out", "lone"], succ)
    assert components == [("lone",), ("in",), ("acc",), ("out",)]
    assert [is_feedback(c, succ) for c in components] == \
        [False, False, True, False]


def test_deep_chain_and_ring_stay_clear_of_the_recursion_limit():
    n = max(20_000, 4 * sys.getrecursionlimit())
    chain = [[v + 1] for v in range(n - 1)] + [[]]
    components = condensation(range(n), chain)
    assert components == [(v,) for v in range(n)]
    ring = chain[:-1] + [[0]]
    (component,) = condensation(range(n), ring)
    assert component == tuple(range(n))
    assert is_feedback(component, ring)


# -- pinned fastpath schedules ----------------------------------------------------
#
# The compiled epoch kernels run in ``graph.sccs`` order, and that order
# must not depend on hashing, set iteration or anything else that varies
# between processes or interpreters.  Any change to the order the graph
# core emits components in must fail here and be made on purpose.


def _schedule(cfg):
    mgr = ConfigurationManager()
    mgr.load(cfg)
    g = capture(mgr)
    names = [[g.nodes[i].obj.name for i in scc] for scc in g.sccs]
    return g.topo, g.schedule, g.sccs, names


def test_despreader_schedule_is_pinned():
    topo, schedule, sccs, names = _schedule(build_despreader_config(2, 4))
    assert topo == [10, 6, 7, 1, 2, 0, 3, 4, 8, 9, 5, 11, 12]
    assert schedule == [("node", 10), ("node", 6), ("node", 7),
                        ("node", 1), ("node", 2), ("node", 0),
                        ("node", 3), ("scc", 0), ("node", 11),
                        ("node", 12)]
    assert sccs == [(4, 8, 9, 5)]
    assert names == [["acc_add", "result_shift_out", "acc_reset",
                      "acc_ram"]]


def test_rake_chain_schedule_is_pinned():
    topo, schedule, sccs, names = _schedule(
        build_rake_chain_config(6, 16, [1] * 6))
    assert topo == [16, 14, 10, 11, 2, 6, 1, 4, 0, 5, 7, 8, 12, 13, 9,
                    15, 17, 18, 3]
    assert schedule == [("node", 16), ("node", 14), ("node", 10),
                        ("node", 11), ("node", 2), ("node", 6),
                        ("node", 1), ("node", 4), ("node", 0),
                        ("node", 5), ("node", 7), ("scc", 0),
                        ("node", 15), ("node", 17), ("node", 18),
                        ("node", 3)]
    assert sccs == [(8, 12, 13, 9)]
    assert names == [["acc_add", "result_shift_out", "acc_reset",
                      "acc_ram"]]

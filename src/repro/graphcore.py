"""The one graph core behind both kernel compilers.

Both compilers of a kernel graph need its feedback structure: the
place-and-route pipeline (:func:`repro.pnr.place.levelize`) collapses
feedback loops before it levels and places, and the fastpath backend
(:func:`repro.fastpath.ir.build_schedule`) lowers each loop to an epoch
kernel between the vectorized acyclic stages.  Both read it from here.

:func:`condensation` is Tarjan's algorithm, iterative so a graph of any
depth stays clear of the recursion limit.  Roots are visited in
``nodes`` order and successors in adjacency order, so the result is a
pure function of the two orders the caller passes in.
"""

from __future__ import annotations


def condensation(nodes, successors) -> list:
    """Strongly connected components in topological order.

    ``nodes`` lists every node once (comparable and hashable);
    ``successors[v]`` is the iterable of ``v``'s successors, one entry
    per edge.  Returns one sorted tuple of members per component;
    every edge between two components runs from an earlier component
    to a later one.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list = []

    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, succs = work[-1]
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    member = None
                    component = []
                    while member != node:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                    components.append(tuple(sorted(component)))
    # Tarjan finishes a component only after everything it reaches
    components.reverse()
    return components


def is_feedback(component, successors) -> bool:
    """Whether a component is a feedback loop: several members, or one
    member wired to itself."""
    return len(component) > 1 or component[0] in successors[component[0]]

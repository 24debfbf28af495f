"""Strongly connected components and condensation.

J-Reduce collapses dependency cycles: every member of a strongly
connected component must be kept or removed together, so the reduction
list is really a list of SCC closures.  We implement Tarjan's algorithm
iteratively (the dependency graphs of large inputs overflow Python's
recursion limit) and build the condensation DAG on top.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.graphs.digraph import DiGraph

__all__ = ["strongly_connected_components", "condensation", "tarjan"]

Node = Hashable


def strongly_connected_components(graph: DiGraph) -> List[FrozenSet[Node]]:
    """Tarjan's SCC algorithm, iteratively.

    Components are returned in reverse topological order of the
    condensation (i.e. a component precedes the components it depends
    on... dependents come later), matching Tarjan's natural output order.
    Roots are tried in ascending and successors in descending ``repr``
    order; each node's ``repr`` is computed once.
    """
    label = {node: repr(node) for node in graph.nodes}
    nodes = sorted(label, key=label.__getitem__)
    id_of = {node: i for i, node in enumerate(nodes)}
    successors = [
        sorted((id_of[nxt] for nxt in graph.successors(node)), reverse=True)
        for node in nodes
    ]
    _, members = tarjan(successors)
    return [frozenset(nodes[i] for i in group) for group in members]


def tarjan(
    successors: Sequence[Sequence[int]],
) -> Tuple[List[int], List[List[int]]]:
    """Tarjan's SCC algorithm over the nodes ``0 .. n-1``, iteratively.

    ``successors[i]`` lists node ``i``'s successors (duplicates allowed),
    visited in list order; roots are tried in ascending order.  Returns
    ``(component_of, members)``: ``members[c]`` lists component ``c``'s
    nodes, and components are numbered in Tarjan's emission order, the
    reverse topological order of the condensation.
    """
    count = len(successors)
    index = [-1] * count
    lowlink = [0] * count
    on_stack = [False] * count
    component_of = [-1] * count
    stack: List[int] = []
    members: List[List[int]] = []
    counter = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Each frame: (node, iterator over its unvisited successors).
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if index[nxt] < 0:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(successors[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    component = len(members)
                    group: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component_of[member] = component
                        group.append(member)
                        if member == node:
                            break
                    members.append(group)
    return component_of, members


def condensation(
    graph: DiGraph,
) -> Tuple[DiGraph, Dict[Node, FrozenSet[Node]]]:
    """The condensation DAG plus the node -> component mapping.

    The condensation's nodes are the components (frozensets); there is an
    edge between two components when any original edge crosses them.
    """
    components = strongly_connected_components(graph)
    component_of: Dict[Node, FrozenSet[Node]] = {}
    for component in components:
        for node in component:
            component_of[node] = component
    dag = DiGraph(nodes=components)
    for src, dst in graph.edges():
        csrc, cdst = component_of[src], component_of[dst]
        if csrc != cdst:
            dag.add_edge(csrc, cdst)
    return dag, component_of

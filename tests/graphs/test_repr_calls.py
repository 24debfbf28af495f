"""Structural guard: the graph algorithms compute each node's repr once.

``repr`` is the tie-break key of the topological sort and of Tarjan's
visiting order.  Re-sorting by it on every step made both quadratic on
wide graphs; counting the calls catches that without a timing threshold.
"""

from repro.graphs import DiGraph, strongly_connected_components
from repro.logic import CNF, Clause
from repro.reduction import dependency_order


class CountingNode:
    """A graph node that counts its ``__repr__`` calls."""

    def __init__(self, name):
        self.name = name
        self.reprs = 0

    def __repr__(self):
        self.reprs += 1
        return f"N{self.name:04d}"


def wide_graph(width=60):
    """A root fanning out to ``width`` nodes that all feed one sink, plus
    a two-node cycle: every step has many ready nodes to order."""
    root, sink = CountingNode(0), CountingNode(1)
    middle = [CountingNode(i) for i in range(2, width + 2)]
    a, b = CountingNode(width + 2), CountingNode(width + 3)
    edges = [(root, m) for m in middle] + [(m, sink) for m in middle]
    edges += [(a, b), (b, a), (a, root)]
    return [root, sink, a, b] + middle, edges


def max_reprs(nodes):
    return max(node.reprs for node in nodes)


class TestReprOncePerNode:
    def test_topological_order(self):
        nodes, edges = wide_graph()
        dag = DiGraph(nodes=nodes, edges=edges[:-3])
        order = dag.topological_order()
        assert len(order) == len(nodes)
        assert max_reprs(nodes) <= 1

    def test_strongly_connected_components(self):
        nodes, edges = wide_graph()
        components = strongly_connected_components(
            DiGraph(nodes=nodes, edges=edges)
        )
        assert len(components) == len(nodes) - 1
        assert max_reprs(nodes) <= 1

    def test_dependency_order(self):
        nodes, edges = wide_graph()
        cnf = CNF(
            [Clause.implication([src], [dst]) for src, dst in edges],
            variables=nodes,
        )
        order = dependency_order(cnf, nodes)
        assert sorted(order, key=id) == sorted(nodes, key=id)
        assert max_reprs(nodes) <= 1

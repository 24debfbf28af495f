"""A small directed graph over hashable nodes.

An edge ``a -> b`` reads "a depends on b": keeping ``a`` in the sub-input
forces keeping ``b`` (exactly the graph constraint ``[a] => [b]``).
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["DiGraph", "kahn"]

Node = Hashable


class DiGraph:
    """Adjacency-set directed graph."""

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[Tuple[Node, Node]] = (),
    ):
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        # Bumped on every actual mutation; lets caches keyed on this
        # graph (see repro.graphs.closure) invalidate cheaply.
        self.version = 0
        for node in nodes:
            self.add_node(node)
        for src, dst in edges:
            self.add_edge(src, dst)

    # -- construction -------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self.version += 1

    def add_edge(self, src: Node, dst: Node) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succ[src]:
            self._succ[src].add(dst)
            self._pred[dst].add(src)
            self.version += 1

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> FrozenSet[Node]:
        return frozenset(self._succ)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def successors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._succ.get(node, ()))

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._pred.get(node, ()))

    def has_edge(self, src: Node, dst: Node) -> bool:
        return dst in self._succ.get(src, ())

    def num_edges(self) -> int:
        return sum(len(dsts) for dsts in self._succ.values())

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    # -- traversal ----------------------------------------------------------------

    def reachable_from(self, sources: Iterable[Node]) -> FrozenSet[Node]:
        """All nodes reachable from ``sources`` (including the sources)."""
        seen: Set[Node] = set()
        stack: List[Node] = [s for s in sources if s in self._succ]
        seen.update(stack)
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def reverse(self) -> "DiGraph":
        """The graph with every edge flipped."""
        out = DiGraph(nodes=self._succ)
        for src, dst in self.edges():
            out.add_edge(dst, src)
        return out

    def subgraph(self, keep: Iterable[Node]) -> "DiGraph":
        """The induced subgraph on ``keep``."""
        keep_set = set(keep)
        out = DiGraph(nodes=(n for n in self._succ if n in keep_set))
        for src, dst in self.edges():
            if src in keep_set and dst in keep_set:
                out.add_edge(src, dst)
        return out

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; raises ValueError on cycles.

        The ready node with the smallest repr comes next (see
        :func:`kahn`); each node's repr is computed once.
        """
        nodes = list(self._succ)
        id_of = {node: i for i, node in enumerate(nodes)}
        successors = [[id_of[dst] for dst in self._succ[n]] for n in nodes]
        order = kahn(successors, [repr(node) for node in nodes])
        return [nodes[i] for i in order]

    def __repr__(self) -> str:
        return f"DiGraph({len(self)} nodes, {self.num_edges()} edges)"


def kahn(successors: Sequence[Sequence[int]], labels: Sequence[str]) -> List[int]:
    """Kahn's topological sort of the nodes ``0 .. n-1``.

    ``successors[i]`` lists node ``i``'s successors (an edge listed twice
    counts twice).  Of the nodes whose predecessors are all placed, the
    one with the smallest label comes next, and among equal labels the
    one that became ready last.  The ready set is a heap, so the sort
    costs O((V + E) log V).  Raises ValueError on cycles.
    """
    indegree = [0] * len(successors)
    for dsts in successors:
        for dst in dsts:
            indegree[dst] += 1
    # Entries are (label, -arrival, node); arrivals are unique, so nodes
    # never decide a comparison.  Nodes ready at the start arrive in
    # index order.
    ready = [(labels[n], -n, n) for n, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    arrivals = len(successors)
    order: List[int] = []
    while ready:
        node = heapq.heappop(ready)[2]
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, (labels[nxt], -arrivals, nxt))
                arrivals += 1
    if len(order) != len(successors):
        raise ValueError("graph has a cycle; no topological order")
    return order

"""Tests for the directed-graph substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DiGraph
from tests.reference_engines import topological_order_reference


class TestConstruction:
    def test_empty(self):
        graph = DiGraph()
        assert len(graph) == 0
        assert graph.num_edges() == 0

    def test_add_edge_adds_nodes(self):
        graph = DiGraph(edges=[("a", "b")])
        assert graph.nodes == {"a", "b"}
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_isolated_nodes(self):
        graph = DiGraph(nodes=["x"])
        assert "x" in graph
        assert graph.successors("x") == frozenset()

    def test_duplicate_edges_idempotent(self):
        graph = DiGraph(edges=[("a", "b"), ("a", "b")])
        assert graph.num_edges() == 1


class TestQueries:
    def setup_method(self):
        # The paper's class-level graph for Figure 1a.
        self.graph = DiGraph(
            edges=[
                ("M", "A"),
                ("M", "I"),
                ("A", "I"),
                ("A", "B"),
                ("B", "I"),
                ("I", "B"),
            ]
        )

    def test_successors_predecessors(self):
        assert self.graph.successors("A") == {"I", "B"}
        assert self.graph.predecessors("I") == {"M", "A", "B"}

    def test_reachable_from_M_is_everything(self):
        # The paper: the only closure containing M has all classes.
        assert self.graph.reachable_from(["M"]) == {"M", "A", "I", "B"}

    def test_reachable_from_B(self):
        assert self.graph.reachable_from(["B"]) == {"B", "I"}

    def test_reachable_ignores_unknown_sources(self):
        assert self.graph.reachable_from(["nope"]) == frozenset()

    def test_reverse(self):
        reverse = self.graph.reverse()
        assert reverse.has_edge("I", "M")
        assert reverse.num_edges() == self.graph.num_edges()

    def test_subgraph(self):
        sub = self.graph.subgraph({"A", "B", "I"})
        assert sub.nodes == {"A", "B", "I"}
        assert sub.has_edge("A", "B")
        assert not sub.has_edge("M", "A")


class TestTopologicalOrder:
    def test_simple_dag(self):
        graph = DiGraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_raises(self):
        graph = DiGraph(edges=[("a", "b"), ("b", "a")])
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_deterministic(self):
        graph = DiGraph(nodes=["c", "a", "b"])
        assert graph.topological_order() == ["a", "b", "c"]


class Tagged:
    """A node whose repr is a tag shared with other nodes (ties)."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return self.tag


@st.composite
def random_dags(draw):
    tags = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=14))
    nodes = [Tagged(tag) for tag in tags]
    n = len(nodes)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
        )
    )
    # Orient every edge from the lower to the higher index: acyclic.
    edges = [(nodes[min(p)], nodes[max(p)]) for p in pairs if p[0] != p[1]]
    return DiGraph(nodes=nodes, edges=edges)


class TestTopologicalOrderAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(random_dags())
    def test_matches_the_resorting_kahn_sort(self, graph):
        # Shared tags make many repr ties: the heap must break them as
        # the re-sorted list did.
        assert graph.topological_order() == topological_order_reference(graph)

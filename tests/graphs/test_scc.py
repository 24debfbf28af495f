"""Tests for Tarjan SCC and condensation (validated against networkx)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DiGraph, condensation, strongly_connected_components
from tests.reference_engines import strongly_connected_components_reference


def graph_from_edge_list(edges, nodes=()):
    return DiGraph(nodes=nodes, edges=edges)


class TestSCC:
    def test_single_node(self):
        graph = DiGraph(nodes=["a"])
        assert strongly_connected_components(graph) == [frozenset({"a"})]

    def test_two_cycle(self):
        graph = graph_from_edge_list([("a", "b"), ("b", "a")])
        components = strongly_connected_components(graph)
        assert components == [frozenset({"a", "b"})]

    def test_dag_has_singleton_components(self):
        graph = graph_from_edge_list([("a", "b"), ("b", "c")])
        components = strongly_connected_components(graph)
        assert sorted(map(sorted, components)) == [["a"], ["b"], ["c"]]

    def test_figure1_class_graph(self):
        # B and I form a cycle; A and M are singletons.
        graph = graph_from_edge_list(
            [
                ("M", "A"),
                ("M", "I"),
                ("A", "I"),
                ("A", "B"),
                ("B", "I"),
                ("I", "B"),
            ]
        )
        components = set(strongly_connected_components(graph))
        assert frozenset({"B", "I"}) in components
        assert frozenset({"A"}) in components
        assert frozenset({"M"}) in components

    def test_deep_chain_no_recursion_limit(self):
        n = 5000
        edges = [(i, i + 1) for i in range(n)]
        graph = graph_from_edge_list(edges)
        components = strongly_connected_components(graph)
        assert len(components) == n + 1


class TestCondensation:
    def test_condensation_is_dag(self):
        graph = graph_from_edge_list(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]
        )
        dag, component_of = condensation(graph)
        dag.topological_order()  # raises if cyclic
        assert component_of["a"] == component_of["b"]
        assert component_of["c"] == component_of["d"]
        assert dag.has_edge(component_of["b"], component_of["c"])

    def test_no_self_loops_in_condensation(self):
        graph = graph_from_edge_list([("a", "b"), ("b", "a")])
        dag, component_of = condensation(graph)
        assert not dag.has_edge(component_of["a"], component_of["a"])


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
        )
    )
    return n, edges


class TestAgainstNetworkx:
    @settings(max_examples=80, deadline=None)
    @given(random_edge_lists())
    def test_components_match_networkx(self, data):
        n, edges = data
        ours = DiGraph(nodes=range(n), edges=edges)
        theirs = nx.DiGraph()
        theirs.add_nodes_from(range(n))
        theirs.add_edges_from(edges)
        expected = {
            frozenset(c) for c in nx.strongly_connected_components(theirs)
        }
        actual = set(strongly_connected_components(ours))
        assert actual == expected

    @settings(max_examples=80, deadline=None)
    @given(random_edge_lists())
    def test_component_list_matches_the_reference(self, data):
        n, edges = data
        graph = DiGraph(nodes=range(n), edges=edges)
        assert strongly_connected_components(
            graph
        ) == strongly_connected_components_reference(graph)

    @settings(max_examples=60, deadline=None)
    @given(random_edge_lists())
    def test_reachability_matches_networkx(self, data):
        n, edges = data
        ours = DiGraph(nodes=range(n), edges=edges)
        theirs = nx.DiGraph()
        theirs.add_nodes_from(range(n))
        theirs.add_edges_from(edges)
        for source in range(n):
            expected = set(nx.descendants(theirs, source)) | {source}
            assert ours.reachable_from([source]) == expected

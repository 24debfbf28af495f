"""Tests for variable-order heuristics."""

from repro.logic import CNF, Clause
from repro.reduction import declaration_order, dependency_order


def edge(a, b):
    return Clause.implication([a], [b])


class TestDeclarationOrder:
    def test_identity(self):
        assert declaration_order(["x", "a", "m"]) == ["x", "a", "m"]


class TestDependencyOrder:
    def test_only_graph_clauses_order_variables(self):
        # b => a | c is no edge; read as one it would put a before b.
        edges_only = CNF([edge("a", "b")], variables=["a", "b", "c"])
        mixed = CNF(
            [edge("a", "b"), Clause.implication(["b"], ["a", "c"])],
            variables=["a", "b", "c"],
        )
        order = dependency_order(edges_only, ["a", "b", "c"])
        assert order.index("b") < order.index("a")
        assert dependency_order(mixed, ["a", "b", "c"]) == order

    def test_dependencies_come_first(self):
        # method!code => method => class: class should be smallest.
        cnf = CNF(
            [edge("m!code", "m"), edge("m", "C")],
            variables=["C", "m", "m!code"],
        )
        order = dependency_order(cnf, ["m!code", "m", "C"])
        assert order.index("C") < order.index("m") < order.index("m!code")

    def test_scc_members_stay_adjacent(self):
        cnf = CNF(
            [edge("b", "i"), edge("i", "b"), edge("a", "b")],
            variables=["a", "b", "i"],
        )
        order = dependency_order(cnf, ["a", "b", "i"])
        assert abs(order.index("b") - order.index("i")) == 1
        assert order.index("a") > order.index("b")

    def test_declaration_breaks_ties(self):
        cnf = CNF(variables=["z", "y", "x"])
        order = dependency_order(cnf, ["z", "y", "x"])
        assert order == ["z", "y", "x"]

    def test_total_order_over_all_variables(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c", "d"])
        order = dependency_order(cnf, ["a", "b", "c", "d"])
        assert sorted(order, key=str) == ["a", "b", "c", "d"]

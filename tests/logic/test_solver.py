"""Unit and property tests for unit propagation and the DPLL solver."""

from hypothesis import given, settings

from repro.logic import CNF, Clause, is_satisfiable, solve
from repro.logic.counting import enumerate_models
from tests.reference_engines import OccurrenceIndex, unit_propagate
from tests.strategies import cnfs, satisfiable_cnfs


def edge(a, b):
    return Clause.implication([a], [b])


class TestPropagation:
    def _index(self, cnf, order):
        indexed = cnf.to_indexed(order)
        return indexed, OccurrenceIndex(indexed.clauses, indexed.num_vars)

    def test_chain_propagates(self):
        cnf = CNF([edge("a", "b"), edge("b", "c")])
        indexed, occ = self._index(cnf, ["a", "b", "c"])
        result = unit_propagate(occ, [(0, True)])
        assert not result.conflict
        assert result.assignment == {0: True, 1: True, 2: True}

    def test_conflict_detected(self):
        cnf = CNF([edge("a", "b"), Clause.implication(["a", "b"], [])])
        indexed, occ = self._index(cnf, ["a", "b"])
        result = unit_propagate(occ, [(0, True)])
        assert result.conflict

    def test_no_units_no_change(self):
        cnf = CNF([Clause.implication(["a"], ["b", "c"])])
        indexed, occ = self._index(cnf, ["a", "b", "c"])
        result = unit_propagate(occ, [])
        assert not result.conflict
        assert result.assignment == {}

    def test_inconsistent_seed(self):
        cnf = CNF([edge("a", "b")])
        indexed, occ = self._index(cnf, ["a", "b"])
        result = unit_propagate(occ, [(0, True), (0, False)])
        assert result.conflict


class TestSolver:
    def test_empty_cnf_is_sat(self):
        result = solve(CNF(variables=["a"]))
        assert result.satisfiable
        assert result.model == frozenset()

    def test_unsat_pair(self):
        cnf = CNF([Clause.unit("a"), Clause.unit("a", positive=False)])
        assert not is_satisfiable(cnf)

    def test_implication_chain_model(self):
        cnf = CNF([Clause.unit("a"), edge("a", "b"), edge("b", "c")])
        result = solve(cnf)
        assert result.satisfiable
        assert result.model == {"a", "b", "c"}

    def test_assumptions(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b"])
        assert is_satisfiable(cnf, assume_true={"a"})
        assert not is_satisfiable(cnf, assume_true={"a"}, assume_false={"b"})

    def test_contradictory_assumptions(self):
        cnf = CNF(variables=["a"])
        assert not is_satisfiable(cnf, assume_true={"a"}, assume_false={"a"})

    def test_requires_branching(self):
        # (a | b) & (~a | c) & (~b | c): both branches force c.
        cnf = CNF(
            [
                Clause.implication([], ["a", "b"]),
                edge("a", "c"),
                edge("b", "c"),
            ]
        )
        result = solve(cnf)
        assert result.satisfiable
        assert "c" in result.model

    def test_false_first_bias_gives_small_models(self):
        # Nothing forces anything: solver should return the empty model.
        cnf = CNF([Clause.implication(["a"], ["b", "c"])])
        result = solve(cnf)
        assert result.satisfiable
        assert result.model == frozenset()

    def test_unsat_via_branching(self):
        # (a|b) & (~a|b) & (a|~b) & (~a|~b) is UNSAT.
        from repro.logic import Lit

        def clause(sa, sb):
            return Clause([Lit("a", sa), Lit("b", sb)])

        cnf = CNF(
            [
                clause(True, True),
                clause(False, True),
                clause(True, False),
                clause(False, False),
            ]
        )
        assert not is_satisfiable(cnf)


class TestSolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(cnfs(max_clauses=8))
    def test_agrees_with_brute_force(self, cnf):
        brute = any(True for _ in enumerate_models(cnf))
        result = solve(cnf)
        assert result.satisfiable == brute
        if result.satisfiable:
            assert cnf.satisfied_by(result.model)

    @settings(max_examples=60, deadline=None)
    @given(satisfiable_cnfs())
    def test_finds_model_for_satisfiable(self, cnf_and_model):
        cnf, seed_model = cnf_and_model
        assert cnf.satisfied_by(seed_model)  # strategy sanity
        result = solve(cnf)
        assert result.satisfiable
        assert cnf.satisfied_by(result.model)

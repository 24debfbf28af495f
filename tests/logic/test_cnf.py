"""Unit and property tests for the CNF representation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic import CNF, Clause, Lit, Var, neg, pos
from tests.reference_engines import add_formula_reference
from tests.strategies import clauses, cnfs, implications


def edge(a, b):
    """Graph constraint a => b."""
    return Clause.implication([a], [b])


class TestClause:
    def test_implication_constructor(self):
        clause = Clause.implication(["a", "b"], ["c"])
        assert clause.negatives == {"a", "b"}
        assert clause.positives == {"c"}

    def test_unit(self):
        clause = Clause.unit("x")
        assert clause.is_unit()
        assert clause.positives == {"x"}

    def test_graph_constraint_detection(self):
        assert edge("a", "b").is_graph_constraint()
        assert not Clause.implication(["a", "b"], ["c"]).is_graph_constraint()
        assert not Clause.implication(["a"], ["b", "c"]).is_graph_constraint()
        assert not Clause.unit("x").is_graph_constraint()

    def test_tautology(self):
        assert Clause([pos("x"), neg("x")]).is_tautology()
        assert not edge("a", "b").is_tautology()

    def test_satisfied_by(self):
        clause = edge("a", "b")  # ~a | b
        assert clause.satisfied_by(set())
        assert clause.satisfied_by({"b"})
        assert clause.satisfied_by({"a", "b"})
        assert not clause.satisfied_by({"a"})

    def test_condition_satisfies(self):
        clause = edge("a", "b")
        assert clause.condition(true_vars={"b"}) is None
        assert clause.condition(false_vars={"a"}) is None

    def test_condition_residual(self):
        clause = Clause.implication(["a", "b"], ["c"])
        residual = clause.condition(true_vars={"a"})
        assert residual == Clause.implication(["b"], ["c"])

    def test_condition_to_empty_clause(self):
        clause = edge("a", "b")
        residual = clause.condition(true_vars={"a"}, false_vars={"b"})
        assert residual is not None and residual.is_empty()

    def test_rejects_non_literals(self):
        with pytest.raises(TypeError):
            Clause(["x"])


class TestCNF:
    def test_variables_include_universe(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        assert cnf.variables == {"a", "b", "c"}

    def test_duplicate_clauses_dropped(self):
        cnf = CNF([edge("a", "b"), edge("a", "b")])
        assert len(cnf) == 1

    def test_tautologies_dropped_but_vars_kept(self):
        cnf = CNF([Clause([pos("x"), neg("x")])])
        assert len(cnf) == 0
        assert "x" in cnf.variables

    def test_copy_is_independent(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        copy = cnf.copy()
        assert copy.clauses == cnf.clauses
        assert copy.variables == cnf.variables
        assert copy.add_clause(edge("b", "d"))
        assert not copy.add_clause(edge("a", "b"))
        assert cnf.add_clause(Clause.unit("e"))
        assert cnf.clauses == [edge("a", "b"), Clause.unit("e")]
        assert copy.clauses == [edge("a", "b"), edge("b", "d")]
        assert cnf.variables == {"a", "b", "c", "e"}
        assert copy.variables == {"a", "b", "c", "d"}

    def test_from_formula(self):
        cnf = CNF.from_formula((Var("a") & Var("b")) >> Var("c"))
        assert len(cnf) == 1
        assert cnf.variables == {"a", "b", "c"}

    def test_satisfied_by(self):
        cnf = CNF([edge("a", "b"), Clause.unit("a")])
        assert cnf.satisfied_by({"a", "b"})
        assert not cnf.satisfied_by({"a"})
        assert not cnf.satisfied_by(set())

    def test_condition_true(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b"])
        conditioned = cnf.condition(true_vars={"a"})
        assert conditioned.satisfied_by({"b"})
        assert not conditioned.satisfied_by(set())
        assert conditioned.variables == {"b"}

    def test_condition_conflicting_raises(self):
        cnf = CNF([edge("a", "b")])
        with pytest.raises(ValueError):
            cnf.condition(true_vars={"a"}, false_vars={"a"})

    def test_restrict_sets_outside_vars_false(self):
        # a => b restricted to {a}: clause becomes ~a (b forced false).
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        restricted = cnf.restrict({"a"})
        assert restricted.variables == {"a"}
        assert restricted.satisfied_by(set())
        assert not restricted.satisfied_by({"a"})

    def test_graph_clause_fraction(self):
        cnf = CNF(
            [
                edge("a", "b"),
                edge("b", "c"),
                Clause.implication(["a", "b"], ["c"]),
                Clause.unit("a"),
            ]
        )
        assert cnf.graph_clause_fraction() == pytest.approx(0.5)

    def test_non_graph_clauses(self):
        fat = Clause.implication(["a", "b"], ["c"])
        cnf = CNF([edge("a", "b"), fat])
        assert cnf.non_graph_clauses() == [fat]

    def test_conjoin(self):
        left = CNF([edge("a", "b")], variables=["z"])
        right = CNF([edge("b", "c")])
        both = left.conjoin(right)
        assert len(both) == 2
        assert "z" in both.variables

    def test_is_unsat_trivially(self):
        cnf = CNF([Clause([])])
        assert cnf.is_unsat_trivially()

    def test_to_indexed_roundtrip(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        indexed = cnf.to_indexed(["c", "b", "a"])
        assert indexed.names == ["c", "b", "a"]
        assert indexed.decode([0, 2]) == {"c", "a"}
        assert indexed.encode_vars(["b"]) == {1}

    def test_to_indexed_requires_full_order(self):
        cnf = CNF([edge("a", "b")])
        with pytest.raises(ValueError):
            cnf.to_indexed(["a"])


class TestCNFProperties:
    @given(cnfs())
    def test_condition_preserves_semantics(self, cnf):
        """R satisfied by M with a true  <=>  (R | a=1) satisfied by M \\ a."""
        if "v0" not in cnf.variables:
            return
        conditioned = cnf.condition(true_vars={"v0"})
        for model in [set(), {"v1"}, {"v1", "v2"}, {"v3", "v4", "v5"}]:
            full = set(model) | {"v0"}
            assert conditioned.satisfied_by(model) == cnf.satisfied_by(full)

    @given(cnfs())
    def test_restrict_agrees_with_condition(self, cnf):
        keep = {"v0", "v1", "v2"}
        restricted = cnf.restrict(keep)
        drop = cnf.variables - keep
        assert restricted.satisfied_by({"v0"}) == cnf.condition(
            false_vars=drop
        ).satisfied_by({"v0"})

    @given(cnfs())
    def test_indexed_encoding_preserves_clause_count(self, cnf):
        indexed = cnf.to_indexed()
        assert len(indexed.clauses) == len(cnf.clauses)

    @given(cnfs())
    def test_numbered_round_trips(self, cnf):
        names = sorted(cnf.variables) + ["spare"]
        clauses_, universe = cnf.numbered(names)
        loaded = CNF.from_numbered(names, clauses_, universe)
        assert loaded.clauses == cnf.clauses
        assert loaded.variables == cnf.variables
        # The bulk-built CNF behaves like one built clause by clause.
        for clause in cnf.clauses:
            assert not loaded.add_clause(clause)
        assert loaded.to_indexed().clauses == cnf.to_indexed().clauses

    @given(clauses(max_size=3))
    def test_shape_checks_match_their_set_definitions(self, clause):
        positives, negatives = clause.positives, clause.negatives
        assert clause.is_graph_constraint() == (
            len(positives) == 1 and len(negatives) == 1
        )
        assert clause.is_tautology() == bool(positives & negatives)

    @given(st.lists(implications(), min_size=1, max_size=4))
    def test_add_formula_matches_the_nnf_route(self, formulas):
        direct = CNF(variables=["v9"])
        reference = CNF(variables=["v9"])
        for formula in formulas:
            direct.add_formula(formula)
            add_formula_reference(reference, formula)
        assert direct.clauses == reference.clauses
        assert direct.variables == reference.variables

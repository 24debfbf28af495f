"""SolverSession: byte-identity with the legacy solver, push/pop, reuse."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cnf import CNF, Clause
from repro.logic.session import SolverSession
from repro.logic.solver import solve
from tests.reference_engines import solve_legacy
from tests.strategies import VAR_NAMES, cnfs


@st.composite
def cnf_and_assumptions(draw):
    cnf = draw(cnfs())
    assume_true = draw(st.sets(st.sampled_from(VAR_NAMES), max_size=4))
    assume_false = draw(st.sets(st.sampled_from(VAR_NAMES), max_size=4))
    return cnf, frozenset(assume_true), frozenset(assume_false)


class TestByteIdentity:
    @given(cnf_and_assumptions())
    @settings(max_examples=200, deadline=None)
    def test_session_matches_legacy_solver(self, case):
        """Same satisfiability AND the exact same model, every time."""
        cnf, assume_true, assume_false = case
        expected = solve_legacy(cnf, assume_true, assume_false)
        got = SolverSession(cnf).solve(assume_true, assume_false)
        assert got == expected

    @given(cnf_and_assumptions())
    @settings(max_examples=100, deadline=None)
    def test_module_level_solve_matches_legacy(self, case):
        cnf, assume_true, assume_false = case
        assert solve(cnf, assume_true, assume_false) == solve_legacy(
            cnf, assume_true, assume_false
        )

    @given(cnfs(), st.lists(cnf_and_assumptions(), max_size=1))
    @settings(max_examples=50, deadline=None)
    def test_repeated_queries_are_stateless(self, cnf, _):
        """A session answers the same query identically before and after
        unrelated queries (no state leaks between solves)."""
        session = SolverSession(cnf)
        baseline = session.solve()
        session.solve(assume_true=frozenset(VAR_NAMES[:3]))
        session.solve(assume_false=frozenset(VAR_NAMES[3:6]))
        assert session.solve() == baseline


class TestPushPop:
    @given(cnf_and_assumptions())
    @settings(max_examples=100, deadline=None)
    def test_trail_fully_popped_after_each_solve(self, case):
        cnf, assume_true, assume_false = case
        session = SolverSession(cnf)
        assert session.is_clean()
        session.solve(assume_true, assume_false)
        assert session.is_clean()
        session.solve()
        assert session.is_clean()

    def test_clean_even_after_unsat(self):
        cnf = CNF(
            [Clause.unit("a"), Clause.unit("a", positive=False)],
            variables=["a"],
        )
        session = SolverSession(cnf)
        assert not session.solve().satisfiable
        assert session.is_clean()

    def test_contradictory_assumptions_short_circuit(self):
        cnf = CNF([Clause.unit("a")], variables=["a"])
        session = SolverSession(cnf)
        result = session.solve(
            assume_true=frozenset(["z"]), assume_false=frozenset(["z"])
        )
        assert result == (False, None)
        assert session.is_clean()


class TestIncrementalClauses:
    def test_add_clause_constrains_later_queries(self):
        cnf = CNF(
            [Clause.implication(["a"], ["b"])], variables=["a", "b", "c"]
        )
        session = SolverSession(cnf)
        assert session.solve().model == frozenset()
        session.add_clause(Clause.implication([], ["c"]))
        model = session.solve().model
        assert model == frozenset(["c"])

    def test_add_clause_matches_fresh_session(self):
        base = [Clause.implication(["a"], ["b", "c"])]
        extra = Clause.implication([], ["a", "b"])
        cnf = CNF(base, variables=["a", "b", "c"])
        session = SolverSession(cnf)
        session.solve()
        session.add_clause(extra)
        grown = CNF(base + [extra], variables=["a", "b", "c"])
        assert session.solve() == SolverSession(grown).solve()

    def test_positive_occurrences_track_added_clauses(self):
        cnf = CNF([Clause.implication([], ["a"])], variables=["a", "b"])
        session = SolverSession(cnf)
        occurrences = session.positive_occurrences()
        assert [c.positives for c in occurrences["a"]] == [frozenset(["a"])]
        assert "b" not in occurrences
        added = Clause.implication(["a"], ["b"])
        session.add_clause(added)
        assert occurrences["b"] == [added]


class TestIndexedMemoization:
    def test_default_compilation_is_shared(self):
        cnf = CNF([Clause.unit("a")], variables=["a", "b"])
        assert cnf.to_indexed() is cnf.to_indexed()

    def test_add_clause_invalidates_the_cache(self):
        cnf = CNF([Clause.unit("a")], variables=["a"])
        before = cnf.to_indexed()
        assert cnf.add_clause(Clause.implication(["a"], ["b"]))
        after = cnf.to_indexed()
        assert after is not before
        assert after.names == ["a", "b"]

    def test_duplicate_add_reports_false_and_keeps_cache(self):
        clause = Clause.unit("a")
        cnf = CNF([clause], variables=["a"])
        before = cnf.to_indexed()
        assert not cnf.add_clause(clause)
        assert cnf.to_indexed() is before

    def test_tautology_still_widens_universe(self):
        cnf = CNF([Clause.unit("a")], variables=["a"])
        cnf.to_indexed()
        taut = Clause.implication(["z"], ["z"])
        assert not cnf.add_clause(taut)
        assert cnf.to_indexed().names == ["a", "z"]

    def test_explicit_order_bypasses_the_cache(self):
        cnf = CNF([Clause.unit("a")], variables=["a", "b"])
        default = cnf.to_indexed()
        custom = cnf.to_indexed(["b", "a"])
        assert custom is not default
        assert custom.names == ["b", "a"]
        assert cnf.to_indexed() is default

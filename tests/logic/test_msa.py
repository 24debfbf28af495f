"""Tests for the approximate minimal-satisfying-assignment procedure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import (
    CNF,
    Clause,
    minimal_satisfying_assignment,
    minimize_model,
)
from repro.logic.msa import MsaSolver
from repro.logic.session import SolverSession
from repro.observability import scoped_metrics
from tests.strategies import implication_cnfs, satisfiable_cnfs


def edge(a, b):
    return Clause.implication([a], [b])


class TestGreedyMsa:
    def test_empty_cnf_gives_empty_model(self):
        cnf = CNF(variables=["a", "b"])
        assert minimal_satisfying_assignment(cnf, ["a", "b"]) == frozenset()

    def test_requirements_propagate_through_edges(self):
        cnf = CNF([edge("a", "b"), edge("b", "c")], variables="abc")
        model = minimal_satisfying_assignment(
            cnf, ["a", "b", "c"], require_true={"a"}
        )
        assert model == {"a", "b", "c"}

    def test_disjunction_picks_order_smallest(self):
        cnf = CNF([Clause.implication(["x"], ["b", "a"])])
        model_ab = minimal_satisfying_assignment(
            cnf, ["a", "b", "x"], require_true={"x"}
        )
        assert model_ab == {"x", "a"}
        model_ba = minimal_satisfying_assignment(
            cnf, ["b", "a", "x"], require_true={"x"}
        )
        assert model_ba == {"x", "b"}

    def test_positive_clause_satisfied_without_requirements(self):
        cnf = CNF([Clause.implication([], ["b", "a"])])
        model = minimal_satisfying_assignment(cnf, ["a", "b"])
        assert model == {"a"}

    def test_learned_set_property(self):
        """The result contains the <-smallest variable of each learned set.

        This is the appendix property GBR's termination argument uses.
        """
        base = CNF([edge("a", "b")], variables=["a", "b", "c", "d"])
        learned = [Clause.implication([], ["c", "d"]),
                   Clause.implication([], ["d", "b"])]
        strengthened = CNF(
            list(base.clauses) + learned, variables=base.variables
        )
        order = ["a", "b", "c", "d"]
        model = minimal_satisfying_assignment(strengthened, order)
        # smallest of {c, d} is c; smallest of {d, b} is b.
        assert "c" in model and "b" in model

    def test_unsat_returns_none(self):
        cnf = CNF([Clause.unit("a", positive=False)])
        assert (
            minimal_satisfying_assignment(cnf, ["a"], require_true={"a"})
            is None
        )

    def test_fallback_on_pure_negative_clause(self):
        # keep a => drop b (pure-negative obligation forces the fallback).
        cnf = CNF(
            [
                Clause.implication(["a", "b"], []),  # ~a | ~b
                Clause.implication([], ["a", "b"]),  # a | b
            ]
        )
        model = minimal_satisfying_assignment(cnf, ["a", "b"])
        assert model is not None
        assert cnf.satisfied_by(model)
        assert len(model) == 1

    def test_fallback_with_requirement(self):
        cnf = CNF(
            [
                Clause.implication(["a", "b"], []),
                Clause.implication(["a"], ["b", "c"]),
            ]
        )
        model = minimal_satisfying_assignment(
            cnf, ["a", "b", "c"], require_true={"a"}
        )
        assert model is not None
        assert "a" in model and cnf.satisfied_by(model)


class TestExtend:
    def test_extend_adds_consequences_only(self):
        cnf = CNF(
            [edge("x", "y"), edge("p", "q")],
            variables=["x", "y", "p", "q"],
        )
        solver = MsaSolver(cnf, ["p", "q", "x", "y"])
        base = solver.compute(require_true={"p"})
        assert base == {"p", "q"}
        extended = set(base)
        added = solver.extend(extended, ["x"])
        assert sorted(added) == ["x", "y"]
        assert extended == {"p", "q", "x", "y"}

    def test_extend_on_satisfied_set_is_identity_plus_new(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        solver = MsaSolver(cnf, ["a", "b", "c"])
        extended = set()
        assert solver.extend(extended, ["c"]) == ["c"]
        assert extended == {"c"}

    def test_extend_of_present_variable_adds_nothing(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b"])
        solver = MsaSolver(cnf, ["a", "b"])
        extended = {"a", "b"}
        assert solver.extend(extended, ["a"]) == []
        assert extended == {"a", "b"}

    def test_extend_unsat(self):
        cnf = CNF([Clause.unit("a", positive=False)], variables=["a"])
        solver = MsaSolver(cnf, ["a"])
        extended = set()
        assert solver.extend(extended, ["a"]) is None
        assert extended == set()

    def test_stuck_cascade_rolls_back_before_the_fallback(self):
        # x forces y or z; y is taken first (order) but "not (x and y)"
        # is a pure-negative clause, so the cascade gets stuck with y
        # added.  The fallback must see {p, x} only, not the stray y.
        cnf = CNF(
            [
                Clause.implication(["x"], ["y", "z"]),
                Clause.implication(["x", "y"], []),
            ],
            variables=["p", "x", "y", "z"],
        )
        solver = MsaSolver(cnf, ["p", "x", "y", "z"])
        extended = {"p"}
        with scoped_metrics() as metrics:
            added = solver.extend(extended, ["x"])
        assert metrics.counter_values().get("msa.fallbacks") == 1
        assert sorted(added) == ["x", "z"]
        assert extended == {"p", "x", "z"}
        assert cnf.satisfied_by(extended)

    def test_unsat_after_a_stuck_cascade_leaves_the_set_unchanged(self):
        cnf = CNF(
            [
                Clause.implication(["x"], ["y"]),
                Clause.implication(["x", "y"], []),
            ],
            variables=["p", "x", "y"],
        )
        solver = MsaSolver(cnf, ["p", "x", "y"])
        extended = {"p"}
        assert solver.extend(extended, ["x"]) is None
        assert extended == {"p"}


class TestMinimizeModel:
    def test_removes_unneeded_variables(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b", "c"])
        minimized = minimize_model(cnf, {"a", "b", "c"})
        assert cnf.satisfied_by(minimized)
        # c is unconstrained; a pulls in b; dropping a allows dropping b.
        assert minimized == frozenset()

    def test_protected_variables_stay(self):
        cnf = CNF([edge("a", "b")], variables=["a", "b"])
        minimized = minimize_model(cnf, {"a", "b"}, protect={"a"})
        assert minimized == {"a", "b"}

    def test_rejects_non_model(self):
        cnf = CNF([Clause.unit("a")])
        with pytest.raises(ValueError):
            minimize_model(cnf, set())

    def test_result_is_locally_minimal(self):
        cnf = CNF(
            [Clause.implication([], ["a", "b"]), edge("a", "c")],
            variables=["a", "b", "c"],
        )
        minimized = minimize_model(cnf, {"a", "b", "c"})
        for var in minimized:
            assert not cnf.satisfied_by(minimized - {var})

    @staticmethod
    def _minimize_full_scan(cnf, model, protect=frozenset(), rank=None):
        """The pre-index implementation: full satisfied_by per attempt."""
        if rank is None:
            rank = lambda var: repr(var)  # noqa: E731
        current = set(model)
        changed = True
        while changed:
            changed = False
            removable = sorted(
                (v for v in current if v not in protect),
                key=rank,
                reverse=True,
            )
            for var in removable:
                candidate = current - {var}
                if cnf.satisfied_by(candidate):
                    current = candidate
                    changed = True
        return frozenset(current)

    @settings(max_examples=100, deadline=None)
    @given(satisfiable_cnfs(), st.data())
    def test_incremental_check_matches_full_scan(self, cnf_and_model, data):
        """Regression for the per-variable index: identical minimized
        models to the original O(|model|·|cnf|)-per-pass re-verification."""
        cnf, model = cnf_and_model
        protect = frozenset(
            data.draw(st.sets(st.sampled_from(sorted(model) or ["v0"])))
        ) & model
        expected = self._minimize_full_scan(cnf, model, protect=protect)
        assert minimize_model(cnf, model, protect=protect) == expected

    def test_shared_occurrence_index_gives_same_result(self):
        cnf = CNF(
            [edge("a", "b"), Clause.implication([], ["b", "c"])],
            variables=["a", "b", "c"],
        )
        session = SolverSession(cnf)
        model = {"a", "b", "c"}
        assert minimize_model(
            cnf, model, occurrences=session.positive_occurrences()
        ) == minimize_model(cnf, model)


class TestScopedMsaSolver:
    """set_scope must behave exactly like solving cnf.restrict(scope)."""

    @settings(max_examples=80, deadline=None)
    @given(implication_cnfs(), st.data())
    def test_scoped_compute_matches_restricted_cnf(self, cnf, data):
        universe = sorted(cnf.variables, key=repr)
        scope = frozenset(
            data.draw(st.sets(st.sampled_from(universe or ["v0"])))
        ) & cnf.variables
        require = frozenset(
            data.draw(st.sets(st.sampled_from(sorted(scope) or ["v0"])))
        ) & scope

        restricted = cnf.restrict(scope)
        reference = MsaSolver(
            restricted, [v for v in universe if v in scope]
        ).compute(require_true=require)

        scoped = MsaSolver(cnf, universe)
        scoped.set_scope(scope)
        try:
            got = scoped.compute(require_true=require)
        finally:
            scoped.set_scope(None)
        assert got == reference

    def test_scope_excludes_out_of_scope_repairs(self):
        # b | c with order putting b first; b out of scope → c chosen.
        cnf = CNF([Clause.implication([], ["b", "c"])], variables="abc")
        solver = MsaSolver(cnf, ["a", "b", "c"])
        solver.set_scope(frozenset({"a", "c"}))
        assert solver.compute() == {"c"}
        solver.set_scope(None)
        assert solver.compute() == {"b"}

    def test_scoped_fallback_assumes_out_of_scope_false(self):
        # ~a strands the greedy pass (it reaches for a first), forcing
        # the solver fallback; the scope must keep the fallback's model
        # from using the out-of-scope variable c.
        cnf = CNF(
            [Clause.unit("a", positive=False), Clause.implication([], ["a", "b", "c"])],
            variables=["a", "b", "c"],
        )
        solver = MsaSolver(cnf, ["a", "b", "c"])
        solver.set_scope(frozenset({"a", "b"}))
        assert solver.compute() == {"b"}
        solver.set_scope(None)
        unscoped = solver.compute()
        assert unscoped is not None and "c" in unscoped

    def test_notice_clause_reaches_live_session(self):
        # ~a plus a|b strands the greedy pass (it reaches for a first),
        # so every compute() goes through the solver-session fallback.
        cnf = CNF(
            [Clause.unit("a", positive=False), Clause.implication([], ["a", "b"])],
            variables=["a", "b", "c"],
        )
        solver = MsaSolver(cnf, ["a", "b", "c"])
        assert solver.compute() == {"b"}  # session now exists
        added = Clause.implication([], ["c"])
        assert cnf.add_clause(added)
        solver.notice_clause(added)
        assert solver.compute() == {"b", "c"}


class TestMsaProperties:
    @settings(max_examples=60, deadline=None)
    @given(implication_cnfs())
    def test_greedy_never_stuck_on_implications(self, cnf):
        order = sorted(cnf.variables, key=repr)
        model = minimal_satisfying_assignment(cnf, order)
        assert model is not None
        assert cnf.satisfied_by(model)

    @settings(max_examples=60, deadline=None)
    @given(satisfiable_cnfs())
    def test_msa_is_a_model_when_sat(self, cnf_and_model):
        cnf, _ = cnf_and_model
        order = sorted(cnf.variables, key=repr)
        model = minimal_satisfying_assignment(cnf, order)
        assert model is not None
        assert cnf.satisfied_by(model)

    @settings(max_examples=40, deadline=None)
    @given(implication_cnfs())
    def test_extend_result_satisfies_and_contains(self, cnf):
        order = sorted(cnf.variables, key=repr)
        solver = MsaSolver(cnf, order)
        base = solver.compute()
        assert base is not None
        new = sorted(cnf.variables - base, key=repr)[:1]
        extended = set(base)
        added = solver.extend(extended, new)
        assert added is not None
        assert set(added) == extended - base
        assert cnf.satisfied_by(extended)
        assert base <= extended
        assert set(new) <= extended

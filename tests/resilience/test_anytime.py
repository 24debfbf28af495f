"""Anytime results: budget exhaustion yields best-so-far, not a crash.

The contract mirrors the paper's Figure 8b framing: "stop both
algorithms at any point and use the smallest input found until that
point".  A budgeted run must return the smallest satisfying sub-input
its predicate has seen, flagged ``status == "partial"``.
"""

import pytest

from repro.fji.examples import MAIN_CODE, figure1_problem
from repro.graphs import DiGraph
from repro.reduction import (
    InstrumentedPredicate,
    ReductionProblem,
    binary_reduction,
    generalized_binary_reduction,
)
from repro.reduction.ddmin import ddmin
from repro.reduction.strategies import run_strategy
from repro.resilience import Budget, ResilientPredicate


def budgeted_figure1(max_calls):
    """Figure 1's problem with a budget layered under the cache."""
    base = figure1_problem()
    budget = Budget(max_calls=max_calls)
    return (
        ReductionProblem(
            variables=base.variables,
            predicate=ResilientPredicate(base.predicate, budget=budget),
            constraint=base.constraint,
            description=base.description,
        ),
        budget,
    )


class TestGbrAnytime:
    def test_unlimited_budget_is_still_complete(self):
        problem, budget = budgeted_figure1(max_calls=None)
        result = generalized_binary_reduction(
            problem, require_true=frozenset({MAIN_CODE})
        )
        assert result.status == "complete"
        assert not result.is_partial
        assert not budget.exhausted

    def test_exhaustion_returns_best_so_far(self):
        reference = generalized_binary_reduction(
            figure1_problem(), require_true=frozenset({MAIN_CODE})
        )
        # Cut the budget below what the full run needed.
        problem, budget = budgeted_figure1(
            max_calls=reference.predicate_calls - 1
        )
        result = generalized_binary_reduction(
            problem, require_true=frozenset({MAIN_CODE})
        )
        assert budget.exhausted
        assert result.status == "partial"
        assert result.is_partial
        # The answer is the predicate's best-so-far satisfying input …
        assert problem.predicate._predicate(result.solution)
        # … and it matches what the timeline reported last.
        instrumented = result.timeline
        assert instrumented, "a partial run with progress has a timeline"
        assert instrumented[-1][1] == len(result.solution)

    def test_zero_budget_falls_back_to_the_universe(self):
        problem, _ = budgeted_figure1(max_calls=0)
        result = generalized_binary_reduction(
            problem, require_true=frozenset({MAIN_CODE})
        )
        assert result.status == "partial"
        assert result.solution == problem.universe

    def test_partial_solution_never_larger_than_the_universe(self):
        reference = generalized_binary_reduction(
            figure1_problem(), require_true=frozenset({MAIN_CODE})
        )
        for cut in (1, reference.predicate_calls // 2):
            problem, _ = budgeted_figure1(max_calls=cut)
            result = generalized_binary_reduction(
                problem, require_true=frozenset({MAIN_CODE})
            )
            assert len(result.solution) <= len(problem.universe)


class TestBinaryReductionAnytime:
    def graph(self):
        return DiGraph(
            edges=[("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]
        )

    def test_exhaustion_is_partial_with_a_satisfying_solution(self):
        budget = Budget(max_calls=2)
        predicate = InstrumentedPredicate(
            ResilientPredicate(lambda kept: "b" in kept, budget=budget)
        )
        result = binary_reduction(self.graph(), predicate)
        assert result.status == "partial"
        assert "b" in result.solution  # still satisfies the predicate

    def test_complete_without_budget(self):
        result = binary_reduction(
            self.graph(), lambda kept: "b" in kept
        )
        assert result.status == "complete"


class TestDdminAnytime:
    def test_returns_current_best_on_exhaustion(self):
        budget = Budget(max_calls=6)
        predicate = ResilientPredicate(
            lambda kept: {"c", "g"} <= kept, budget=budget
        )
        items = list("abcdefgh")
        solution = ddmin(items, predicate)
        assert budget.exhausted
        # Whatever was returned has satisfied the predicate.
        assert {"c", "g"} <= set(solution)

    def test_unbudgeted_result_unchanged(self):
        solution = ddmin(list("abcdefgh"), lambda kept: {"c", "g"} <= kept)
        assert solution == {"c", "g"}


class TestStrategyRegistryAnytime:
    def test_run_strategy_ddmin_labels_partial(self):
        problem, budget = budgeted_figure1(max_calls=5)
        result = run_strategy("ddmin", problem)
        assert budget.exhausted
        assert result.status == "partial"

    def test_run_strategy_ddmin_complete_without_budget(self):
        result = run_strategy("ddmin", figure1_problem())
        assert result.status == "complete"

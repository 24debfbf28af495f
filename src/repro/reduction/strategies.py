"""A uniform registry of reduction strategies.

Every strategy takes a :class:`repro.reduction.problem.ReductionProblem`
(plus optional keyword arguments shared across strategies) and returns a
:class:`repro.reduction.problem.ReductionResult`.  The experiment harness
and the CLI do not dispatch through this registry (the harness names its
strategies in :func:`repro.harness.experiments.run_instance`); tests use
it to run any strategy by name.

Registered strategies:

- ``gbr`` — Generalized Binary Reduction with the dependency order (the
  paper's reducer).
- ``gbr-declaration`` — GBR with the raw declaration order (ablation).
- ``lossy-first`` / ``lossy-last`` — the two §4.3 encodings + binary
  reduction.
- ``ddmin`` — validity-blind ddmin over the items (invalid sub-inputs
  count as "failure gone").

The class-granularity J-Reduce baseline needs the class-level dependency
graph, which only the substrate layers can provide; the harness builds it
via :func:`repro.reduction.binary.binary_reduction` directly.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Optional, Sequence

from repro.reduction.ddmin import ddmin
from repro.reduction.gbr import generalized_binary_reduction
from repro.reduction.lossy import LossyVariant, lossy_reduce
from repro.reduction.ordering import declaration_order
from repro.reduction.predicate import InstrumentedPredicate
from repro.reduction.problem import (
    ReductionProblem,
    ReductionResult,
    Stopwatch,
)

__all__ = ["STRATEGIES", "run_strategy"]

VarName = Hashable
Strategy = Callable[..., ReductionResult]


def _run_gbr(
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    return generalized_binary_reduction(
        problem, order=order, require_true=require_true
    )


def _run_gbr_declaration(
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    chosen = order if order is not None else declaration_order(problem.variables)
    result = generalized_binary_reduction(
        problem, order=chosen, require_true=require_true
    )
    result.strategy = "gbr-declaration"
    return result


def _run_lossy_first(
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    return lossy_reduce(
        problem, LossyVariant.FIRST, order=order, require_true=require_true
    )


def _run_lossy_last(
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    return lossy_reduce(
        problem, LossyVariant.LAST, order=order, require_true=require_true
    )


def _run_ddmin(
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    """Validity-blind ddmin: invalid sub-inputs probe as False."""
    from repro.resilience import budget_of

    watch = Stopwatch()
    constraint = problem.constraint
    raw = problem.predicate

    def guarded(sub_input: FrozenSet[VarName]) -> bool:
        if require_true and not (frozenset(require_true) <= sub_input):
            return False
        if not constraint.satisfied_by(sub_input):
            return False  # the "don't know" outcome
        return raw(sub_input)

    instrumented = InstrumentedPredicate(guarded)
    items = list(order) if order is not None else list(problem.variables)
    solution = ddmin(items, instrumented)
    # ddmin's anytime contract swallows BudgetExhausted and returns its
    # best-so-far list, so partiality is read back off the budget.
    budget = budget_of(problem.predicate)
    status = (
        "partial" if budget is not None and budget.exhausted else "complete"
    )
    return ReductionResult(
        solution=solution,
        strategy="ddmin",
        predicate_calls=instrumented.calls,
        elapsed_seconds=watch.elapsed(),
        timeline=list(instrumented.timeline),
        status=status,
    )


STRATEGIES: Dict[str, Strategy] = {
    "gbr": _run_gbr,
    "gbr-declaration": _run_gbr_declaration,
    "lossy-first": _run_lossy_first,
    "lossy-last": _run_lossy_last,
    "ddmin": _run_ddmin,
}


def run_strategy(
    name: str,
    problem: ReductionProblem,
    require_true: FrozenSet[VarName] = frozenset(),
    order: Optional[Sequence[VarName]] = None,
) -> ReductionResult:
    """Run the named strategy (see module docstring for the registry)."""
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown strategy {name!r}; known: {known}") from None
    return strategy(problem, require_true=require_true, order=order)

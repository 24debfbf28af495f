"""The Input Reduction Problem (Definition 4.1).

An instance is ``(I, P, R)`` where ``I`` is a set of variables, ``P`` is a
black-box predicate on subsets of ``I`` (true iff the sub-input still
induces the bug), and ``R`` is a CNF over ``I`` whose models are exactly
the *valid* sub-inputs.  The paper assumes ``P(I)``, ``R(I)``, and that
``P`` is monotone on valid sub-inputs.

``I`` is kept as an ordered sequence: the declaration order doubles as the
default variable order ``<`` for MSA_<.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.cnf import CNF

__all__ = [
    "ReductionProblem",
    "ReductionResult",
    "ReductionError",
    "BudgetExhausted",
]

VarName = Hashable
Predicate = Callable[[FrozenSet[VarName]], bool]


class ReductionError(RuntimeError):
    """Raised when a reduction invariant is violated.

    In a correct setup this indicates a broken input: an unsatisfiable
    validity constraint, a predicate that fails on the full input, or a
    non-monotone predicate.
    """


class BudgetExhausted(ReductionError):
    """A per-run call/time budget is spent (see :mod:`repro.resilience`).

    Raised by a budgeted predicate wrapper when the next fresh
    invocation would exceed the run's budget.  The reduction algorithms
    treat it as a *stop* signal, not a failure: they catch it and return
    the best bug-preserving sub-input found so far with
    ``ReductionResult.status == "partial"`` (the paper's Figure 8b
    anytime contract: "stop both algorithms at any point and use the
    smallest input until that point").
    """

    def __init__(self, message: str, budget=None):
        super().__init__(message)
        self.budget = budget


@dataclass
class ReductionProblem:
    """One instance of the Input Reduction Problem.

    Attributes:
        variables: the universe ``I`` in declaration order.
        predicate: the black-box ``P``; called only on valid sub-inputs by
            the logic-aware algorithms.
        constraint: the validity CNF ``R`` over (a subset of) ``I``.
        description: free-form label for reports.
    """

    variables: Sequence[VarName]
    predicate: Predicate
    constraint: CNF
    description: str = ""

    def __post_init__(self) -> None:
        universe = set(self.variables)
        if len(universe) != len(self.variables):
            raise ValueError("duplicate variables in the universe")
        stray = self.constraint.variables - universe
        if stray:
            raise ValueError(
                f"constraint mentions variables outside I: {sorted(map(str, stray))!r}"
            )

    @property
    def universe(self) -> FrozenSet[VarName]:
        return frozenset(self.variables)

    def check_assumptions(self) -> None:
        """Verify ``R(I)`` and ``P(I)`` (Definition 4.1's assumptions)."""
        full = self.universe
        if not self.constraint.satisfied_by(full):
            raise ReductionError("R(I) does not hold: the full input is invalid")
        if not self.predicate(full):
            raise ReductionError("P(I) does not hold: the full input shows no bug")

    def is_valid(self, sub_input: FrozenSet[VarName]) -> bool:
        """Does ``R`` accept this sub-input?"""
        return self.constraint.satisfied_by(sub_input)


@dataclass
class ReductionResult:
    """Outcome of running one reduction strategy on one problem.

    ``timeline`` records ``(seconds_since_start, best_size_so_far)`` pairs
    — one per predicate invocation that found a new smaller bug-preserving
    sub-input — which is what Figure 8b plots.

    ``status`` is ``"complete"`` for a full run and ``"partial"`` when a
    predicate budget exhausted mid-run and the strategy returned its
    best-so-far satisfying sub-input instead (see
    :class:`BudgetExhausted`).  A partial solution still satisfies the
    predicate; it just may not be as small as a complete run's.
    """

    solution: FrozenSet[VarName]
    strategy: str
    predicate_calls: int
    elapsed_seconds: float
    iterations: int = 0
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    status: str = "complete"

    @property
    def size(self) -> int:
        return len(self.solution)

    @property
    def is_partial(self) -> bool:
        return self.status == "partial"

    def __repr__(self) -> str:
        return (
            f"ReductionResult(strategy={self.strategy!r}, "
            f"size={self.size}, calls={self.predicate_calls}, "
            f"elapsed={self.elapsed_seconds:.3f}s)"
        )


class Stopwatch:
    """Tiny helper shared by the strategies for elapsed-time accounting."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

"""Approximate minimal satisfying assignments (the paper's MSA_<).

Finding a satisfying assignment with the fewest true variables is
NP-complete (Ravi & Somenzi 2004, cited by the paper), so — exactly like
the paper — we settle for an approximate procedure that runs in polynomial
time and respects a total variable order ``<``:

1. **Greedy with propagation** (the fast path): start from the required
   variables, and while some clause is violated (all positive literals
   false, all negative literals true), satisfy it by setting its
   ``<``-smallest unassigned positive variable to true.  Each step adds
   one variable, so the loop runs at most ``|I|`` times.  For the clause
   shapes produced by the type rules — implications whose heads are
   non-empty disjunctions of variables — this never gets stuck, and it
   has the property the paper's termination proof needs: the result
   contains the ``<``-smallest variable of each all-positive (learned)
   clause that no earlier choice already satisfied.

2. **Solver fallback** (general CNF): if the greedy pass meets a clause
   with no positive literals (a pure "at-most" constraint), fall back to
   the DPLL solver and locally minimize the model by attempting removals
   in reverse ``<`` order.

The :class:`MsaSolver` also exposes an *incremental* ``extend`` operation,
which the PROGRESSION subroutine uses: given a consistent true-set and a
batch of newly-required variables, it cascades only through the clauses
the new variables can violate and grows the caller's set in place,
returning just the variables it added.  Building a whole progression
therefore costs roughly one pass over the clause database, and one set,
instead of one pass and one copy of the covered set per entry.
"""

from __future__ import annotations

from collections import deque
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.cnf import CNF, Clause
from repro.logic.session import SolverSession
from repro.observability import get_metrics

__all__ = ["MsaSolver", "minimal_satisfying_assignment", "minimize_model"]

VarName = Hashable


class MsaSolver:
    """Reusable MSA machinery over one CNF and one variable order.

    The order is given as a sequence of variable names; earlier means
    ``<``-smaller.  Variables absent from the order sort last (ties broken
    deterministically by ``repr``).

    The solver can run *scoped* (see :meth:`set_scope`): out-of-scope
    variables are treated as false — semantically ``cnf.restrict(scope)``
    — but implemented with solver-session assumptions instead of
    materializing a restricted CNF, which is what makes PROGRESSION's
    per-iteration rebuilds cheap.  Incremental callers may pass a
    pre-built ``session`` (and feed appended clauses through
    :meth:`notice_clause`); otherwise one is created lazily on the first
    solver fallback.
    """

    def __init__(
        self,
        cnf: CNF,
        order: Sequence[VarName] = (),
        session: Optional[SolverSession] = None,
    ):
        self.cnf = cnf
        self._order_index: Dict[VarName, int] = {
            name: i for i, name in enumerate(order)
        }
        self._session = session
        self._scope: Optional[FrozenSet[VarName]] = None
        # Clauses indexed by the variables whose *truth* can violate them
        # (i.e. variables occurring negatively).
        self._neg_occurrences: Dict[VarName, List[Clause]] = {}
        self._positive_clauses: List[Clause] = []
        for clause in cnf.clauses:
            self._index_clause(clause)

    def _index_clause(self, clause: Clause) -> None:
        positive_only = True
        for var, positive in clause.literals:
            if not positive:
                positive_only = False
                self._neg_occurrences.setdefault(var, []).append(clause)
        if positive_only:
            self._positive_clauses.append(clause)

    def notice_clause(self, clause: Clause) -> None:
        """Register a clause appended to ``self.cnf`` after construction.

        Keeps the cascade's occurrence structures — and the fallback
        session's clause database — in sync with the growing CNF.  The
        caller is responsible for having actually added the clause
        (``CNF.add_clause`` returning True).
        """
        self._index_clause(clause)
        if self._session is not None:
            self._session.add_clause(clause)

    def set_scope(self, scope: Optional[FrozenSet[VarName]]) -> None:
        """Restrict (or, with None, unrestrict) the solver to ``scope``.

        While scoped, every computation behaves as if run against
        ``cnf.restrict(scope)``: out-of-scope variables are false, never
        eligible as repairs, and assumed false in fallback solves.
        """
        self._scope = None if scope is None else frozenset(scope)

    def _ensure_session(self) -> SolverSession:
        if self._session is None:
            self._session = SolverSession(self.cnf)
        return self._session

    # -- ordering -----------------------------------------------------------

    def rank(self, var: VarName) -> Tuple[int, str]:
        """Sort key implementing the total order ``<``."""
        return (self._order_index.get(var, len(self._order_index)), repr(var))

    def smallest(self, variables: Iterable[VarName]) -> VarName:
        """The ``<``-smallest of ``variables``."""
        return min(variables, key=self.rank)

    # -- full MSA ------------------------------------------------------------

    def compute(
        self, require_true: AbstractSet[VarName] = frozenset()
    ) -> Optional[FrozenSet[VarName]]:
        """An approximate MSA of the CNF with ``require_true`` forced.

        Returns None when the CNF (plus requirements) is unsatisfiable.
        """
        true_set: Set[VarName] = set(require_true)
        seeds = deque(self._positive_clauses)
        for var in require_true:
            seeds.extend(self._neg_occurrences.get(var, ()))
        if self._cascade(true_set, seeds, []):
            return frozenset(true_set)
        return self._fallback(require_true)

    def extend(
        self,
        true_set: Set[VarName],
        new_true: Iterable[VarName],
    ) -> Optional[List[VarName]]:
        """Minimally extend a consistent true-set with new requirements.

        ``true_set`` must already satisfy the CNF; it is extended in
        place, so a caller that grows one set across many calls (a
        progression) copies nothing per call.  Returns the variables
        added to it — ``new_true``'s missing members and the cascade's
        repairs — or None, leaving ``true_set`` as it was, when no
        extension satisfies the CNF.

        When the cascade gets stuck on a pure-negative clause, its own
        additions are rolled back and the solver fallback computes a
        model of ``true_set | new_true``; what that model adds is then
        added in place.
        """
        added: List[VarName] = []
        seeds: deque = deque()
        for var in new_true:
            if var not in true_set:
                true_set.add(var)
                added.append(var)
                seeds.extend(self._neg_occurrences.get(var, ()))
        fresh = len(added)  # new_true's members not already true
        if self._cascade(true_set, seeds, added):
            return added
        true_set.difference_update(added)
        model = self._fallback(true_set.union(added[:fresh]))
        if model is None:
            return None
        added = [var for var in model if var not in true_set]
        true_set.update(added)
        return added

    # -- internals --------------------------------------------------------------

    def _cascade(
        self, true_set: Set[VarName], seeds: deque, added: List[VarName]
    ) -> bool:
        """Greedy repair loop; adds each repair to ``true_set`` and
        appends it to ``added``.

        Returns False when it gets stuck on a clause with no positive
        literals (the caller then uses the solver fallback).
        """
        repairs = 0
        try:
            while seeds:
                clause = seeds.popleft()
                if not _violated(clause, true_set):
                    continue
                candidates = clause.positives - true_set
                if self._scope is not None:
                    candidates &= self._scope
                if not candidates:
                    return False  # pure-negative clause with all vars true
                choice = self.smallest(candidates)
                repairs += 1
                true_set.add(choice)
                added.append(choice)
                seeds.extend(self._neg_occurrences.get(choice, ()))
                # The clause itself is now satisfied (choice is positive
                # in it).
            return True
        finally:
            if repairs:
                get_metrics().counter("msa.repairs").inc(repairs)

    def _fallback(
        self, require_true: AbstractSet[VarName]
    ) -> Optional[FrozenSet[VarName]]:
        get_metrics().counter("msa.fallbacks").inc()
        session = self._ensure_session()
        if self._scope is None:
            assume_false: FrozenSet[VarName] = frozenset()
        else:
            # Scope-as-assumptions: semantically cnf.restrict(scope),
            # without compiling a restricted CNF per call.
            assume_false = self.cnf.variables - self._scope
        result = session.solve(
            assume_true=require_true, assume_false=assume_false
        )
        if not result.satisfiable:
            return None
        assert result.model is not None
        model = result.model | frozenset(require_true)
        return minimize_model(
            self.cnf,
            model,
            protect=require_true,
            rank=self.rank,
            occurrences=session.positive_occurrences(),
        )


def _violated(clause: Clause, true_set: AbstractSet[VarName]) -> bool:
    """Violated under set-semantics: unassigned variables default to false."""
    for lit in clause.literals:
        if lit.positive == (lit.var in true_set):
            return False
    return True


def minimal_satisfying_assignment(
    cnf: CNF,
    order: Sequence[VarName] = (),
    require_true: AbstractSet[VarName] = frozenset(),
) -> Optional[FrozenSet[VarName]]:
    """One-shot approximate MSA (see :class:`MsaSolver`)."""
    return MsaSolver(cnf, order).compute(require_true)


def minimize_model(
    cnf: CNF,
    model: AbstractSet[VarName],
    protect: AbstractSet[VarName] = frozenset(),
    rank=None,
    occurrences: Optional[Dict[VarName, List[Clause]]] = None,
) -> FrozenSet[VarName]:
    """Locally minimize a model by attempting single-variable removals.

    Variables are tried in reverse ``rank`` order (largest first), so the
    ``<``-smallest variables are the last to go.  The result still
    satisfies ``cnf`` and contains ``protect``.  Runs removal passes to a
    fixpoint.

    Removal checks are incremental: flipping ``var`` true→false can only
    falsify clauses where ``var`` occurs *positively* (every other
    clause's literals are unaffected or strengthened), so each attempt
    re-checks just those clauses via a per-variable index instead of the
    whole CNF — O(occ(var)) per attempt instead of O(|cnf|).
    ``occurrences`` lets session-holding callers share a prebuilt index
    (see :meth:`repro.logic.session.SolverSession.positive_occurrences`);
    it must cover at least every removable variable's positive clauses.
    """
    if not cnf.satisfied_by(model):
        raise ValueError("minimize_model requires a satisfying model")
    if rank is None:
        rank = lambda var: repr(var)  # noqa: E731 - local default key
    if occurrences is None:
        occurrences = {}
        for clause in cnf.clauses:
            for var in clause.positives:
                occurrences.setdefault(var, []).append(clause)
    current: Set[VarName] = set(model)
    changed = True
    while changed:
        changed = False
        removable = sorted(
            (v for v in current if v not in protect), key=rank, reverse=True
        )
        for var in removable:
            candidate = current - {var}
            if all(
                clause.satisfied_by(candidate)
                for clause in occurrences.get(var, ())
            ):
                current = candidate
                changed = True
    return frozenset(current)

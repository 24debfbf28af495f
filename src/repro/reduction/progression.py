r"""The PROGRESSION subroutine of Generalized Binary Reduction.

``PROGRESSION_{R_I}(L, J)`` produces a non-empty list of disjoint subsets
of ``J`` whose union is ``J``, such that **every prefix union is a valid
sub-input** (satisfies ``R_I``) that overlaps every learned set in ``L``
(invariant INV-PRO).  Construction, following the paper:

- strengthen: ``R+ = R_I  /\  (\\/ L)  for each L in learned``, with the
  variables outside ``J`` set to 0,
- ``D_0 = MSA_<(R+)``,
- ``D_{k+1} = MSA_<(R+ /\ x | D_{<=k} = 1) \\ D_{<=k}`` where ``x`` is the
  ``<``-smallest variable of ``J`` not yet covered,
- stop when ``J`` is exhausted.

The per-entry MSA calls are implemented incrementally
(:meth:`repro.logic.msa.MsaSolver.extend`), so building a progression is
one cascading pass over the clause database rather than a fresh solve per
entry.  The pass keeps one covered set, which ``extend`` grows in place
and which no entry copies: each entry is just the variables that call
added, so a build costs time linear in the scope plus the cascade's
repairs, not one copy of the covered set per entry.

Across GBR iterations the work is incremental too: a
:class:`ProgressionEngine` keeps one working CNF, one
:class:`~repro.logic.msa.MsaSolver` (with its lazily-built solver
session), and the learned clauses for a whole run.  Each iteration only
*appends* a learned clause and *shrinks* the scope, so instead of
re-materializing ``constraint.restrict(scope)`` plus a fresh solver per
rebuild, the engine scopes the persistent solver with assumptions
(out-of-scope variables false) — same results, none of the per-rebuild
compilation.  ``tests/reference_engines.py`` keeps the materializing
implementation for the differential tests.
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Sequence,
)

from repro.logic.cnf import CNF, Clause
from repro.logic.msa import MsaSolver
from repro.observability import get_metrics, get_tracer
from repro.reduction.problem import ReductionError

__all__ = [
    "Progression",
    "ProgressionEngine",
    "build_progression",
]

VarName = Hashable


class Progression:
    """A list of disjoint sets whose prefix unions are all valid.

    Prefix unions are materialized lazily: a binary search touches only
    O(log n) distinct prefixes, so eagerly building all n of them (O(n²)
    element copies for n entries) wasted almost all of the work.  Each
    requested union is built by extending the largest already-cached
    prefix below it — the entries are disjoint, so the chain extension
    is exact — then cached for later probes.  The
    ``progression.union_elements`` counter tallies elements copied into
    materialized unions (the regression test compares it against the
    eager baseline's quadratic count).
    """

    def __init__(self, entries: Sequence[FrozenSet[VarName]]):
        if not entries:
            raise ValueError("a progression must be non-empty")
        self.entries: List[FrozenSet[VarName]] = [
            frozenset(e) for e in entries
        ]
        self._union_cache: Dict[int, FrozenSet[VarName]] = {
            0: self.entries[0]
        }
        self._cached_indices: List[int] = [0]  # kept sorted
        self._union_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> FrozenSet[VarName]:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    @property
    def first(self) -> FrozenSet[VarName]:
        """``D_0`` — the candidate solution."""
        return self.entries[0]

    def prefix_union(self, r: int) -> FrozenSet[VarName]:
        """``D^∪_{<=r}`` — the union of entries 0..r inclusive."""
        n = len(self.entries)
        if r < 0:
            r += n
        if not 0 <= r < n:
            raise IndexError(f"prefix index {r} out of range for {self!r}")
        with self._union_lock:
            cached = self._union_cache.get(r)
            if cached is not None:
                return cached
            # Extend the nearest cached prefix below r (index 0 is
            # always present).
            pos = bisect_right(self._cached_indices, r) - 1
            base_index = self._cached_indices[pos]
            running = set(self._union_cache[base_index])
            for index in range(base_index + 1, r + 1):
                running.update(self.entries[index])
            result = frozenset(running)
            self._union_cache[r] = result
            insort(self._cached_indices, r)
        get_metrics().counter("progression.union_elements").inc(len(result))
        return result

    @property
    def union(self) -> FrozenSet[VarName]:
        return self.prefix_union(len(self.entries) - 1)

    def __repr__(self) -> str:
        sizes = [len(e) for e in self.entries]
        return f"Progression({len(self.entries)} entries, sizes={sizes})"


class ProgressionEngine:
    """Incremental ``PROGRESSION_{R_I}`` builder for a whole GBR run.

    GBR only ever *adds* learned sets and *shrinks* the scope, so one
    engine serves every rebuild of a run:

    - the working CNF is cloned once from ``R_I``; learned clauses are
      appended monotonically (never popped),
    - one :class:`MsaSolver` (and the solver session it lazily builds)
      persists across rebuilds; learned clauses flow into its occurrence
      structures via :meth:`MsaSolver.notice_clause`,
    - the scope is applied as assumptions (:meth:`MsaSolver.set_scope`)
      for the duration of one :meth:`build` — semantically identical to
      the reference's ``constraint.restrict(scope)``, without
      re-compiling the restricted CNF and its indexes every iteration.
    """

    def __init__(self, constraint: CNF, order: Sequence[VarName]):
        self.order = list(order)
        self.working = constraint.copy()
        self.solver = MsaSolver(self.working, self.order)
        self.learned: List[FrozenSet[VarName]] = []

    def learn(self, learned_set: FrozenSet[VarName]) -> None:
        """Append a learned set (as an all-positive clause) to ``R+``."""
        learned_set = frozenset(learned_set)
        self.learned.append(learned_set)
        clause = Clause.implication([], learned_set)
        if self.working.add_clause(clause):
            self.solver.notice_clause(clause)

    def build(
        self,
        scope: FrozenSet[VarName],
        require_true: FrozenSet[VarName] = frozenset(),
    ) -> Progression:
        """``PROGRESSION_{R_I}(L, J)`` with ``L`` = the learned sets so far.

        Raises:
            ReductionError: when ``R+`` is unsatisfiable, i.e. the
                search space contains no valid sub-input hitting every
                learned set.
        """
        scope = frozenset(scope)
        get_metrics().counter("progression.rebuilds").inc()
        with get_tracer().span(
            "progression.build", scope=len(scope), learned=len(self.learned)
        ) as sp:
            for learned_set in self.learned:
                if not learned_set & scope:
                    raise ReductionError(
                        "learned set fell fully outside the search space"
                    )
            solver = self.solver
            solver.set_scope(scope)
            try:
                scoped_order = [v for v in self.order if v in scope]
                # Under a partial `order` some scope variables are
                # stragglers; they go through the same incremental-MSA
                # extension as ordered variables (sorted by the solver's
                # rank for determinism), so every prefix union keeps
                # satisfying R+ (INV-PRO) instead of being appended as
                # one unchecked raw entry.
                stragglers = sorted(
                    scope.difference(scoped_order), key=solver.rank
                )

                first = solver.compute(
                    require_true=frozenset(require_true) & scope
                )
                if first is None:
                    raise ReductionError(
                        "R+ is unsatisfiable: "
                        "no valid sub-input in the search space"
                    )

                entries: List[FrozenSet[VarName]] = [first]
                # One covered set for the whole build: extend grows it
                # in place and returns just the entry's variables.
                covered = set(first)
                for var in scoped_order + stragglers:
                    if var in covered:
                        continue
                    added = solver.extend(covered, (var,))
                    if added is None:
                        raise ReductionError(
                            f"could not extend progression with {var!r}; "
                            "is R(J) violated?"
                        )
                    entries.append(frozenset(added))
            finally:
                solver.set_scope(None)
            sp.set_attr("entries", len(entries))

        return Progression(entries)


def build_progression(
    constraint: CNF,
    order: Sequence[VarName],
    learned: Iterable[FrozenSet[VarName]],
    scope: FrozenSet[VarName],
    require_true: FrozenSet[VarName] = frozenset(),
) -> Progression:
    """One-shot ``PROGRESSION_{R_I}(L, J)`` (see module docstring).

    Args:
        constraint: ``R_I``.
        order: the total variable order ``<`` (over all of ``I``).
        learned: the learned sets ``L`` (each a subset of ``scope``).
        scope: ``J`` — the current search space.
        require_true: extra variables forced true (e.g. the entry point
            the tool always needs); these are usually also unit clauses
            in ``R_I``, but passing them here keeps ``D_0`` honest even
            for constraint-free problems.

    Raises:
        ReductionError: when ``R+`` is unsatisfiable, i.e. the search
            space contains no valid sub-input hitting every learned set.

    Callers rebuilding per iteration (GBR) should hold a
    :class:`ProgressionEngine` instead of re-invoking this.
    """
    engine = ProgressionEngine(constraint, order)
    for learned_set in learned:
        engine.learn(frozenset(learned_set))
    return engine.build(frozenset(scope), require_true)

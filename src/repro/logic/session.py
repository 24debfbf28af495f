"""Incremental solver sessions: compile a CNF once, query it many times.

The reduction stack re-solves near-identical problems relentlessly: GBR,
PROGRESSION, and the MSA fallback all call ``solve()`` on the same CNF
under different assumptions.  The one-shot solver pays per call for
``CNF.to_indexed()`` (a full repr-sort of the universe), an occurrence
index rebuild, and a fresh assignment dict copied at every decision.

A :class:`SolverSession` pays those costs once:

- the :class:`~repro.logic.cnf.IndexedCNF` compilation is persistent
  (and memoized on the CNF itself, see :meth:`CNF.to_indexed`),
- propagation runs on two-watched-literal structures
  (:class:`~repro.logic.propagation.WatchedIndex`) built once — watch
  moves are never undone, so backtracking and repeated queries cost
  nothing to prepare,
- assumptions are pushed onto a trail and popped after each query; the
  assignment lives in one flat array, not per-decision dict copies.

Results are **byte-identical** to the one-shot solver: the search keeps
the same false-first value order and the same branch heuristic (first
free literal of the first shortest unsatisfied clause in clause order),
and unit propagation reaches the same fixpoints (propagation is
confluent), so every model — and therefore every downstream
``ReductionResult`` — matches the legacy engine.  The differential
tests in ``tests/logic`` assert exactly this.

Sessions are deliberately *not* thread-safe (the trail and watch lists
are mutable); create one session per thread, as the corpus executor
does per instance.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.logic.cnf import CNF, Clause
from repro.logic.propagation import WatchedIndex, propagate_watched
from repro.observability import get_metrics, get_tracer
from repro.observability.spans import NULL_SPAN

__all__ = ["SatResult", "SolverSession"]

VarName = Hashable


class SatResult(NamedTuple):
    """Result of a SAT call: satisfiable flag plus a model (if SAT).

    The model is returned as the frozenset of true variable names; all
    other variables in the CNF's universe are false.
    """

    satisfiable: bool
    model: Optional[FrozenSet[VarName]]


class _SolverStats:
    """Per-call DPLL counters, pushed to the metrics registry once.

    The inner loops are the hottest code in the repo, so we count with
    plain attribute adds here and do a single ``Counter.inc`` per solver
    call.
    """

    __slots__ = ("decisions", "propagations", "conflicts")

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    def publish(self, satisfiable: bool) -> None:
        metrics = get_metrics()
        metrics.counter("solver.calls").inc()
        if satisfiable:
            metrics.counter("solver.sat").inc()
        else:
            metrics.counter("solver.unsat").inc()
        if self.decisions:
            metrics.counter("solver.decisions").inc(self.decisions)
        if self.propagations:
            metrics.counter("solver.propagations").inc(self.propagations)
        if self.conflicts:
            metrics.counter("solver.conflicts").inc(self.conflicts)


class SolverSession:
    """A reusable DPLL context over one compiled clause database.

    Args:
        cnf: the CNF to compile.  ``to_indexed()`` is memoized on the
            CNF, so sessions over the same CNF share the compilation.
        order: optional explicit variable order (defaults to the CNF's
            deterministic repr-sort).

    The session owns private scan/watch structures — the shared
    ``IndexedCNF`` is never mutated — so clauses may be appended to the
    session (:meth:`add_clause`) without touching the source CNF's
    memoized compilation.
    """

    def __init__(self, cnf: CNF, order: Optional[Sequence[VarName]] = None):
        indexed = cnf.to_indexed(order)
        self.cnf = cnf
        self.indexed = indexed
        #: Pristine clause tuples for the branch heuristic scan;
        #: session-private (appended to by :meth:`add_clause`).
        self.scan_clauses: List[Tuple[int, ...]] = list(indexed.clauses)
        self._watched = WatchedIndex(indexed.clauses, indexed.num_vars)
        self._values: List[Optional[bool]] = [None] * indexed.num_vars
        self._trail: List[int] = []
        self._pos_occurrences: Optional[Dict[VarName, List[Clause]]] = None
        self.solves = 0

    # -- clause database ------------------------------------------------------

    def add_clause(self, clause: Clause) -> None:
        """Append a clause (named form) to this session's database.

        Every variable of the clause must already be in the compiled
        universe.  Safe between queries, never during one.
        """
        index = self.indexed.index
        encoded = tuple(
            sorted(
                (index[lit.var] + 1) if lit.positive else -(index[lit.var] + 1)
                for lit in clause
            )
        )
        self.scan_clauses.append(encoded)
        self._watched.add_clause(encoded)
        if self._pos_occurrences is not None:
            for var in clause.positives:
                self._pos_occurrences.setdefault(var, []).append(clause)

    def positive_occurrences(self) -> Dict[VarName, List[Clause]]:
        """Per-variable index of clauses containing the variable positively.

        Built once (lazily) and kept current by :meth:`add_clause`;
        :func:`repro.logic.msa.minimize_model` threads this through its
        removal re-verification so each attempt touches only the
        clauses the removed variable can break.
        """
        if self._pos_occurrences is None:
            occurrences: Dict[VarName, List[Clause]] = {}
            for clause in self.cnf.clauses:
                for var in clause.positives:
                    occurrences.setdefault(var, []).append(clause)
            self._pos_occurrences = occurrences
        return self._pos_occurrences

    # -- queries --------------------------------------------------------------

    def solve(
        self,
        assume_true: AbstractSet[VarName] = frozenset(),
        assume_false: AbstractSet[VarName] = frozenset(),
    ) -> SatResult:
        """Decide satisfiability under the given assumptions.

        Assumption handling matches the one-shot solver exactly: names
        outside the compiled universe are ignored (but a name assumed
        both ways is unsatisfiable even then).
        """
        index = self.indexed.index
        seed: List[Tuple[int, bool]] = []
        for name in assume_true:
            if name in index:
                seed.append((index[name], True))
        for name in assume_false:
            if name in index:
                seed.append((index[name], False))
            if name in assume_true:
                return SatResult(False, None)
        satisfiable, model = self.solve_seed(seed)
        if not satisfiable:
            return SatResult(False, None)
        assert model is not None
        return SatResult(True, self.indexed.decode(model))

    def is_satisfiable(
        self,
        assume_true: AbstractSet[VarName] = frozenset(),
        assume_false: AbstractSet[VarName] = frozenset(),
    ) -> bool:
        """Shorthand for ``solve(...).satisfiable``."""
        return self.solve(assume_true, assume_false).satisfiable

    def solve_seed(
        self, seed: Iterable[Tuple[int, bool]] = ()
    ) -> Tuple[bool, Optional[FrozenSet[int]]]:
        """Index-level query: seed is (variable index, value) pairs.

        Returns (satisfiable, set of true variable indices); the trail
        is fully popped before returning, so the session is clean for
        the next query.
        """
        stats = _SolverStats()
        tracer = get_tracer()
        if tracer.enabled:
            cm = tracer.span(
                "solver.solve",
                variables=self.indexed.num_vars,
                clauses=len(self.scan_clauses),
            )
        else:
            cm = NULL_SPAN
        with cm as sp:
            satisfiable, model = self._solve(seed, stats)
            sp.set_attr("satisfiable", satisfiable)
            sp.set_attr("decisions", stats.decisions)
            sp.set_attr("conflicts", stats.conflicts)
        stats.publish(satisfiable)
        self.solves += 1
        return satisfiable, model

    def is_clean(self) -> bool:
        """Push/pop invariant: no assignment survives between queries."""
        return not self._trail and all(v is None for v in self._values)

    # -- internals ------------------------------------------------------------

    def _solve(
        self, seed: Iterable[Tuple[int, bool]], stats: _SolverStats
    ) -> Tuple[bool, Optional[FrozenSet[int]]]:
        if self._watched.has_empty:
            return False, None  # an empty clause is trivially unsatisfiable
        values = self._values
        trail = self._trail
        try:
            ok = True
            for lit in self._watched.unit_literals:
                if not self._assume_literal(lit):
                    ok = False
                    break
            if ok:
                for var, value in seed:
                    if not self._assume_literal(
                        var + 1 if value else -(var + 1)
                    ):
                        ok = False
                        break
            if ok:
                enqueued = len(trail)
                ok, _ = propagate_watched(self._watched, values, trail, 0)
                if ok:
                    stats.propagations += len(trail) - enqueued
            if not ok:
                stats.conflicts += 1
                return False, None
            if not self._search(stats, (), 0):
                return False, None
            model = frozenset(i for i, v in enumerate(values) if v)
            return True, model
        finally:
            self._backtrack(0)

    def _assume_literal(self, lit: int) -> bool:
        var = lit - 1 if lit > 0 else -lit - 1
        existing = self._values[var]
        if existing is None:
            self._values[var] = lit > 0
            self._trail.append(lit)
            return True
        return existing == (lit > 0)

    def _backtrack(self, mark: int) -> None:
        values = self._values
        trail = self._trail
        for i in range(len(trail) - 1, mark - 1, -1):
            lit = trail[i]
            values[lit - 1 if lit > 0 else -lit - 1] = None
        del trail[mark:]

    def _search(
        self, stats: _SolverStats, alive: Tuple[Tuple[int, ...], ...], start: int
    ) -> bool:
        """Recursive DPLL on top of a propagated partial assignment.

        ``alive``/``start`` carry the incremental scan state (see
        :meth:`_pick_branch`): along one search path assignments only
        grow, so clauses found satisfied at this node never need
        re-checking deeper down.  Backtracking needs no undo — each
        depth keeps its own immutable state.
        """
        var, alive, start = self._pick_branch(alive, start)
        if var is None:
            return True  # every clause satisfied
        values = self._values
        trail = self._trail
        for value in (False, True):  # false-first: prefer small models
            stats.decisions += 1
            mark = len(trail)
            values[var] = value
            trail.append(var + 1 if value else -(var + 1))
            ok, _ = propagate_watched(self._watched, values, trail, mark)
            if ok:
                # Everything newly assigned beyond the decision itself
                # was implied.
                stats.propagations += len(trail) - mark - 1
                if self._search(stats, alive, start):
                    return True
            else:
                stats.conflicts += 1
            self._backtrack(mark)
        return False

    def _pick_branch(
        self, alive: Tuple[Tuple[int, ...], ...], start: int
    ) -> Tuple[Optional[int], Tuple[Tuple[int, ...], ...], int]:
        """Pick a free variable from the shortest unsatisfied clause.

        Identical semantics to the legacy solver's heuristic — first
        free literal of the first clause attaining the minimum free
        count, clauses in database order — which is what keeps models
        byte-identical across engines.  Two fixpoint-only shortcuts make
        it cheap (we always branch on a completed propagation fixpoint,
        where an unsatisfied clause has >= 2 free literals — one free
        would be a pending unit, zero a conflict):

        - the scan early-exits at ``free == 2``: no later clause can
          attain a smaller count, so the first 2-free clause IS the
          first minimal one (the legacy engine cannot do this — its
          root assignment is not a fixpoint, so it must keep scanning
          for a 1-free clause);
        - candidates narrow as the search deepens: clauses found
          satisfied here stay satisfied below, so only ``alive``
          (clauses seen unsatisfied with free > 2, in database order)
          and the unscanned tail from ``start`` are rescanned.

        Returns ``(branch var or None, alive', start')`` where the
        primed state is the child scan's candidate set.
        """
        values = self._values
        scan_clauses = self.scan_clauses
        total = len(scan_clauses)
        best_var: Optional[int] = None
        best_free: Optional[int] = None
        survivors: List[Tuple[int, ...]] = []
        position = start
        from_tail = False
        source = iter(alive)
        while True:
            if not from_tail:
                clause = next(source, None)
                if clause is None:
                    from_tail = True
                    continue
            else:
                if position >= total:
                    break
                clause = scan_clauses[position]
                position += 1
            free_count = 0
            first_free = -1
            satisfied = False
            for lit in clause:
                var = lit - 1 if lit > 0 else -lit - 1
                value = values[var]
                if value is None:
                    free_count += 1
                    if first_free < 0:
                        first_free = var
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if free_count == 0:
                # Propagation detects every falsified clause before we
                # branch.
                raise AssertionError(
                    f"falsified clause {clause!r} reached the branching step"
                )
            if best_free is None or free_count < best_free:
                best_free = free_count
                best_var = first_free
                if best_free <= 2:
                    # The winning clause stays a candidate for deeper
                    # scans (the decision may not satisfy it).
                    survivors.append(clause)
                    break
            survivors.append(clause)
        if from_tail:
            remaining: Tuple[Tuple[int, ...], ...] = ()
            next_start = position
        else:
            # Broke inside `alive`: everything not yet drawn is still a
            # candidate, and the tail was never reached.
            remaining = tuple(source)
            next_start = start
        return best_var, tuple(survivors) + remaining, next_start

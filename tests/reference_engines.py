"""Reference engines the differential tests compare production code to.

These are the original, pre-optimisation implementations, kept verbatim
as executable specifications:

- :class:`OccurrenceIndex` + :func:`unit_propagate` — occurrence-list
  unit propagation; :func:`watched_propagate_from_seed` runs
  :func:`repro.logic.propagation.propagate_watched` behind the same
  call shape so the two engines compare call-for-call;
- :func:`solve_legacy` / :func:`solve_indexed` — the per-call DPLL
  solver that :class:`repro.logic.session.SolverSession` must match
  model-for-model;
- :func:`build_progression_reference` — the materializing PROGRESSION
  builder that :class:`repro.reduction.progression.ProgressionEngine`
  must match entry-for-entry.

Nothing under ``src/`` imports this module.
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

from repro.logic.cnf import CNF, Clause, IndexedCNF
from repro.logic.msa import MsaSolver
from repro.logic.propagation import WatchedIndex, propagate_watched
from repro.logic.session import SatResult, _SolverStats
from repro.observability import get_metrics, get_tracer
from repro.observability.spans import NULL_SPAN
from repro.reduction.problem import ReductionError
from repro.reduction.progression import Progression

VarName = Hashable


# -- propagation -------------------------------------------------------------


class PropagationResult(NamedTuple):
    """Outcome of a propagation run.

    ``conflict`` is True when a clause became empty.  ``assignment`` maps
    variable index -> bool for every variable assigned so far (including
    the seed literals).
    """

    conflict: bool
    assignment: Dict[int, bool]


class OccurrenceIndex:
    """Occurrence lists for a clause database (built once, reused)."""

    def __init__(self, clauses: Sequence[Tuple[int, ...]], num_vars: int):
        self.clauses = list(clauses)
        self.num_vars = num_vars
        # occurrences[var][polarity] -> clause indices where (var, polarity)
        # appears; polarity 1 = positive, 0 = negative.
        self.occurrences: List[Tuple[List[int], List[int]]] = [
            ([], []) for _ in range(num_vars)
        ]
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                var = abs(lit) - 1
                self.occurrences[var][1 if lit > 0 else 0].append(ci)


def unit_propagate(
    index: OccurrenceIndex,
    seed: Iterable[Tuple[int, bool]],
    base: Optional[Dict[int, bool]] = None,
) -> PropagationResult:
    """Propagate units from ``seed`` on top of the partial assignment ``base``.

    ``seed`` is an iterable of (variable index, value) decisions.  The
    returned assignment includes ``base``, the seeds, and everything
    implied.  Detects conflicts (a clause with every literal falsified).
    """
    assignment: Dict[int, bool] = dict(base) if base else {}
    queue: List[Tuple[int, bool]] = []

    def assign(var: int, value: bool) -> bool:
        existing = assignment.get(var)
        if existing is not None:
            return existing == value
        assignment[var] = value
        queue.append((var, value))
        return True

    for var, value in seed:
        if not assign(var, value):
            return PropagationResult(True, assignment)

    clauses = index.clauses
    occurrences = index.occurrences

    while queue:
        var, value = queue.pop()
        # Clauses where the assigned literal is falsified may become unit.
        affected = occurrences[var][0 if value else 1]
        for ci in affected:
            clause = clauses[ci]
            unit_lit = None
            satisfied = False
            for lit in clause:
                lvar = abs(lit) - 1
                lval = assignment.get(lvar)
                if lval is None:
                    if unit_lit is not None:
                        unit_lit = 0  # at least two free literals
                    else:
                        unit_lit = lit
                elif lval == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if unit_lit is None:
                return PropagationResult(True, assignment)  # all falsified
            if unit_lit == 0:
                continue  # still has 2+ free literals
            uvar = abs(unit_lit) - 1
            if not assign(uvar, unit_lit > 0):
                return PropagationResult(True, assignment)

    return PropagationResult(False, assignment)


def _repair_watches(
    index: WatchedIndex,
    values: List[Optional[bool]],
    base: Dict[int, bool],
) -> None:
    """Move watches off literals falsified by an unpropagated base.

    ``propagate_watched`` relies on the invariant that a clause's first
    watch is only falsified while its falsifying assignment is still
    pending in the queue.  A base installed directly into ``values``
    breaks that (nothing is pending), so a clause can end up watched on
    two literals where one is already false — a later watch move would
    then skip a unit implication.  This pass re-points such watches at
    non-false literals where any exist.  Clauses with at most one
    non-false literal are left alone (unit under the base): asserting
    them would derive more than the occurrence-list reference does.
    """
    clause_lits = index.clause_lits
    watches = index.watches
    for var, value in base.items():
        false_lit = -(var + 1) if value else (var + 1)
        watchers = watches.get(false_lit)
        if not watchers:
            continue
        kept: List[int] = []
        for ci in watchers:
            lits = clause_lits[ci]
            if lits[0] == false_lit:
                lits[0], lits[1] = lits[1], lits[0]
            moved = False
            for k in range(2, len(lits)):
                other = lits[k]
                ovar = other - 1 if other > 0 else -other - 1
                oval = values[ovar]
                if oval is None or oval == (other > 0):
                    lits[1] = other
                    lits[k] = false_lit
                    watches.setdefault(other, []).append(ci)
                    moved = True
                    break
            if not moved:
                kept.append(ci)
        watches[false_lit] = kept


def watched_propagate_from_seed(
    index: WatchedIndex,
    seed: Iterable[Tuple[int, bool]],
    base: Optional[Dict[int, bool]] = None,
) -> PropagationResult:
    """Drop-in :func:`unit_propagate` twin running on watched literals.

    Exists so the differential tests can compare the two engines
    call-for-call; the solver session drives :func:`propagate_watched`
    directly (no dict copies, trail-based backtracking).

    Parity notes: like ``unit_propagate``, base literals are not
    re-queued, and length-1 clauses assert nothing on their own — but an
    assignment made *during this call* against a unit clause is a
    conflict (``unit_propagate`` sees it through the occurrence lists;
    units are outside the watch database, so we check them explicitly).
    """
    values: List[Optional[bool]] = [None] * index.num_vars
    trail: List[int] = []
    if base:
        for var, value in base.items():
            values[var] = value
            trail.append(var + 1 if value else -(var + 1))
        # Base literals are installed without propagation, which can
        # leave clauses watched on base-falsified literals.  Repair the
        # watch invariant (move watches off falsified literals) without
        # asserting anything: implications that follow from the base
        # alone stay underived, matching ``unit_propagate``.
        _repair_watches(index, values, base)
    start = len(trail)
    conflict = False
    for var, value in seed:
        existing = values[var]
        if existing is None:
            values[var] = value
            trail.append(var + 1 if value else -(var + 1))
        elif existing != value:
            conflict = True
            break
    if not conflict:
        ok, _ = propagate_watched(index, values, trail, start)
        conflict = not ok
    if not conflict and index.unit_literals:
        assigned_now = {
            lit - 1 if lit > 0 else -lit - 1 for lit in trail[start:]
        }
        for lit in index.unit_literals:
            var = lit - 1 if lit > 0 else -lit - 1
            if var in assigned_now and values[var] != (lit > 0):
                conflict = True
                break
    assignment = {
        var: value for var, value in enumerate(values) if value is not None
    }
    return PropagationResult(conflict, assignment)


# -- solver ------------------------------------------------------------------


def solve_legacy(
    cnf: CNF,
    assume_true: AbstractSet[VarName] = frozenset(),
    assume_false: AbstractSet[VarName] = frozenset(),
) -> SatResult:
    """The pre-session code path, preserved verbatim as a baseline.

    Pays the original per-call costs on purpose — a fresh repr-sort of
    the universe, a fresh :class:`OccurrenceIndex`, dict-copy
    backtracking — so the differential tests compare against the real
    former behaviour, not a half-accelerated one.
    """
    indexed = IndexedCNF(cnf, sorted(cnf.variables, key=repr))
    seed: List[Tuple[int, bool]] = []
    for name in assume_true:
        if name in indexed.index:
            seed.append((indexed.index[name], True))
    for name in assume_false:
        if name in indexed.index:
            seed.append((indexed.index[name], False))
        if name in assume_true:
            return SatResult(False, None)
    sat, model_indices = solve_indexed(indexed, seed)
    if not sat:
        return SatResult(False, None)
    assert model_indices is not None
    return SatResult(True, indexed.decode(model_indices))


def solve_indexed(
    indexed: IndexedCNF,
    seed: Iterable[Tuple[int, bool]] = (),
) -> Tuple[bool, Optional[FrozenSet[int]]]:
    """DPLL over the integer-indexed form (occurrence-list engine).

    Returns (satisfiable, set of true variable indices).  Unconstrained
    variables are left false, biasing the model toward small true sets.
    """
    stats = _SolverStats()
    tracer = get_tracer()
    if tracer.enabled:
        cm = tracer.span(
            "solver.solve",
            variables=indexed.num_vars,
            clauses=len(indexed.clauses),
        )
    else:
        cm = NULL_SPAN
    with cm as sp:
        satisfiable, model = _solve_indexed(indexed, seed, stats)
        sp.set_attr("satisfiable", satisfiable)
        sp.set_attr("decisions", stats.decisions)
        sp.set_attr("conflicts", stats.conflicts)
    stats.publish(satisfiable)
    return satisfiable, model


def _solve_indexed(
    indexed: IndexedCNF,
    seed: Iterable[Tuple[int, bool]],
    stats: _SolverStats,
) -> Tuple[bool, Optional[FrozenSet[int]]]:
    if any(not clause for clause in indexed.clauses):
        return False, None  # an empty clause is trivially unsatisfiable
    index = OccurrenceIndex(indexed.clauses, indexed.num_vars)
    seed = list(seed)
    result = unit_propagate(index, seed)
    if result.conflict:
        stats.conflicts += 1
        return False, None
    stats.propagations += len(result.assignment) - len(seed)
    assignment = result.assignment
    final = _dpll(index, assignment, stats)
    if final is None:
        return False, None
    true_indices = frozenset(v for v, val in final.items() if val)
    return True, true_indices


def _dpll(
    index: OccurrenceIndex,
    assignment: Dict[int, bool],
    stats: _SolverStats,
) -> Optional[Dict[int, bool]]:
    """Recursive DPLL search on top of a propagated partial assignment."""
    branch_var = _pick_branch_variable(index, assignment)
    if branch_var is None:
        return assignment  # every clause satisfied
    for value in (False, True):  # false-first: prefer small models
        stats.decisions += 1
        result = unit_propagate(index, [(branch_var, value)], base=assignment)
        if result.conflict:
            stats.conflicts += 1
            continue
        # Everything newly assigned beyond the decision itself was implied.
        stats.propagations += len(result.assignment) - len(assignment) - 1
        final = _dpll(index, result.assignment, stats)
        if final is not None:
            return final
    return None


def _pick_branch_variable(
    index: OccurrenceIndex, assignment: Dict[int, bool]
) -> Optional[int]:
    """Pick a free variable from the shortest unsatisfied clause.

    Returns None when all clauses are satisfied (so any remaining free
    variables can default to false).
    """
    best_var: Optional[int] = None
    best_free = None
    for clause in index.clauses:
        free: List[int] = []
        satisfied = False
        for lit in clause:
            var = abs(lit) - 1
            value = assignment.get(var)
            if value is None:
                free.append(var)
            elif value == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not free:
            # Propagation detects every falsified clause before we branch.
            free_conflict(clause)
        if best_free is None or len(free) < best_free:
            best_free = len(free)
            best_var = free[0]
            if best_free == 1:
                break
    return best_var


def free_conflict(clause: Tuple[int, ...]) -> int:
    """Unreachable guard: a falsified clause survived propagation."""
    raise AssertionError(
        f"falsified clause {clause!r} reached the branching step"
    )


# -- progression -------------------------------------------------------------


def build_progression_reference(
    constraint: CNF,
    order: Sequence[VarName],
    learned: Iterable[FrozenSet[VarName]],
    scope: FrozenSet[VarName],
    require_true: FrozenSet[VarName] = frozenset(),
) -> Progression:
    """The pre-engine implementation, preserved as a baseline.

    Materializes ``constraint.restrict(scope)`` plus the learned clauses
    and builds a fresh :class:`MsaSolver` per call — the differential
    tests assert :class:`ProgressionEngine` produces identical entries.
    """
    scope = frozenset(scope)
    learned = list(learned)
    get_metrics().counter("progression.rebuilds").inc()
    with get_tracer().span(
        "progression.build", scope=len(scope), learned=len(learned)
    ) as sp:
        strengthened = constraint.restrict(scope)
        for learned_set in learned:
            inside = frozenset(learned_set) & scope
            if not inside:
                raise ReductionError(
                    "learned set fell fully outside the search space"
                )
            strengthened.add_clause(Clause.implication([], inside))

        scoped_order = [v for v in order if v in scope]
        solver = MsaSolver(strengthened, scoped_order)
        stragglers = sorted(scope - set(scoped_order), key=solver.rank)

        first = solver.compute(require_true=frozenset(require_true) & scope)
        if first is None:
            raise ReductionError(
                "R+ is unsatisfiable: no valid sub-input in the search space"
            )

        entries: List[FrozenSet[VarName]] = [first]
        covered = set(first)
        for var in scoped_order + stragglers:
            if var in covered:
                continue
            extended = solver.extend(covered, [var])
            if extended is None:
                raise ReductionError(
                    f"could not extend progression with {var!r}; "
                    "is R(J) violated?"
                )
            entry = frozenset(extended - covered)
            entries.append(entry)
            covered = set(extended)
        sp.set_attr("entries", len(entries))

    return Progression(entries)

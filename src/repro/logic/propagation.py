"""Boolean constraint propagation (unit propagation).

Both the DPLL solver and the MSA procedure lean on unit propagation.  We
work on the integer-indexed clause form (:class:`repro.logic.cnf.IndexedCNF`
encoding): a literal is ``idx + 1`` or ``-(idx + 1)``.

:class:`WatchedIndex` + :func:`propagate_watched` implement the
two-watched-literal scheme (MiniSat-style) used by
:class:`repro.logic.session.SolverSession`.  Watches are built once per
clause database and never undone on backtracking, which is what makes
repeated ``solve(assume...)`` calls on one session cheap.  The original
occurrence-list engine lives on in ``tests/reference_engines.py``: the
differential tests assert both engines reach the same fixpoints and
detect the same conflicts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["WatchedIndex", "propagate_watched"]


class WatchedIndex:
    """Two-watched-literal clause database (built once, reused forever).

    Each clause of length >= 2 watches two of its literals: the clause
    only needs attention when a *watched* literal is falsified, so an
    assignment touches ``O(watchers)`` clauses instead of every
    occurrence.  Watch positions are the first two slots of the
    (mutable) per-clause literal list; moves are never undone on
    backtracking — the invariant "a falsified watch is repaired before
    propagation finishes" is restored lazily on the next propagation.

    Length-0 clauses set :attr:`has_empty` (the database is trivially
    unsatisfiable); length-1 clauses go to :attr:`unit_literals` and are
    enqueued by the caller at the start of every solve.  Clause ids are
    list positions, aligned with the caller's pristine scan list.
    """

    __slots__ = ("num_vars", "clause_lits", "watches", "unit_literals", "has_empty")

    def __init__(self, clauses: Iterable[Tuple[int, ...]], num_vars: int):
        self.num_vars = num_vars
        self.clause_lits: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.unit_literals: List[int] = []
        self.has_empty = False
        for clause in clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause; safe between solves (never mid-propagation)."""
        lits = list(literals)
        ci = len(self.clause_lits)
        self.clause_lits.append(lits)
        if not lits:
            self.has_empty = True
        elif len(lits) == 1:
            self.unit_literals.append(lits[0])
        else:
            self.watches.setdefault(lits[0], []).append(ci)
            self.watches.setdefault(lits[1], []).append(ci)


def propagate_watched(
    index: WatchedIndex,
    values: List[Optional[bool]],
    trail: List[int],
    qhead: int,
) -> Tuple[bool, int]:
    """Propagate to fixpoint from ``trail[qhead:]``; mutates in place.

    ``values`` maps variable index -> assigned value (None = free);
    ``trail`` holds assigned literal codes in assignment order.  Implied
    literals are assigned into ``values`` and appended to ``trail``.

    Returns ``(ok, qhead')``: ``ok`` is False when a clause was
    falsified (callers backtrack via the trail; watch invariants stay
    intact either way).
    """
    clause_lits = index.clause_lits
    watches = index.watches
    while qhead < len(trail):
        false_lit = -trail[qhead]
        qhead += 1
        watchers = watches.get(false_lit)
        if not watchers:
            continue
        kept: List[int] = []
        pos = 0
        total = len(watchers)
        while pos < total:
            ci = watchers[pos]
            pos += 1
            lits = clause_lits[ci]
            if lits[0] == false_lit:
                lits[0] = lits[1]
                lits[1] = false_lit
            first = lits[0]
            fvar = first - 1 if first > 0 else -first - 1
            fval = values[fvar]
            if fval is not None and fval == (first > 0):
                kept.append(ci)  # satisfied by the other watch
                continue
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
            if moved:
                continue
            kept.append(ci)  # no replacement: clause is unit or falsified
            if fval is None:
                values[fvar] = first > 0
                trail.append(first)
            else:
                kept.extend(watchers[pos:])
                watches[false_lit] = kept
                return False, qhead
        watches[false_lit] = kept
    return True, qhead

"""A DPLL SAT solver.

This is deliberately a classic DPLL (unit propagation + branching), not a
CDCL engine: the dependency constraints produced by the type rules are
overwhelmingly Horn-like implications (97.5% plain edges in the paper's
benchmarks), which BCP handles almost entirely on its own.  The solver
branches false-first, which biases discovered models toward *small* true
sets — useful because callers in :mod:`repro.logic.msa` minimize models.

:class:`repro.logic.session.SolverSession` is the engine: persistent
compilation, two-watched-literal propagation, trail-based backtracking.
:func:`solve` runs every one-shot query through a session over the CNF's
memoized compilation.  The original per-call occurrence-list engine is
kept in ``tests/reference_engines.py``, where differential tests assert
the two engines return byte-identical models.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable

from repro.logic.cnf import CNF
from repro.logic.session import SatResult, SolverSession

__all__ = ["SatResult", "solve", "is_satisfiable"]

VarName = Hashable


def solve(
    cnf: CNF,
    assume_true: AbstractSet[VarName] = frozenset(),
    assume_false: AbstractSet[VarName] = frozenset(),
) -> SatResult:
    """Decide satisfiability of ``cnf`` under the given assumptions.

    One-shot convenience over :class:`SolverSession`; the CNF's
    compilation is memoized, so repeated calls on the same CNF only pay
    for the session's (cheap) watch/scan setup.  Callers with a genuinely
    hot loop should hold a session and call it directly.
    """
    return SolverSession(cnf).solve(assume_true, assume_false)


def is_satisfiable(
    cnf: CNF,
    assume_true: AbstractSet[VarName] = frozenset(),
    assume_false: AbstractSet[VarName] = frozenset(),
) -> bool:
    """Shorthand for ``solve(...).satisfiable``."""
    return solve(cnf, assume_true, assume_false).satisfiable

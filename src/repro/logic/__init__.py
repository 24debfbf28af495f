"""Propositional-logic substrate.

This package provides everything the reducer needs from a SAT stack:

- a small formula AST (:mod:`repro.logic.formula`) for building the
  dependency constraints the way the paper's type rules do,
- a CNF representation with conditioning and restriction
  (:mod:`repro.logic.cnf`),
- unit propagation and a DPLL SAT solver (:mod:`repro.logic.solver`),
- approximate *minimal satisfying assignments* under a variable order
  (:mod:`repro.logic.msa`), the MSA_< procedure of the paper,
- an exact #SAT model counter (:mod:`repro.logic.counting`), our stand-in
  for sharpSAT,
- DIMACS import/export (:mod:`repro.logic.dimacs`).

All public APIs use arbitrary hashable objects as variable names; the
solver-facing code compiles to integer-indexed clauses internally.
"""

from repro.logic.formula import (
    FALSE,
    TRUE,
    And,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    conj,
    disj,
)
from repro.logic.cnf import CNF, Clause, Lit, neg, pos
from repro.logic.session import SolverSession
from repro.logic.solver import SatResult, solve, is_satisfiable
from repro.logic.msa import minimal_satisfying_assignment, minimize_model
from repro.logic.counting import count_models
from repro.logic.dimacs import to_dimacs, from_dimacs

__all__ = [
    "Formula",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "conj",
    "disj",
    "CNF",
    "Clause",
    "Lit",
    "pos",
    "neg",
    "solve",
    "is_satisfiable",
    "SatResult",
    "SolverSession",
    "minimal_satisfying_assignment",
    "minimize_model",
    "count_models",
    "to_dimacs",
    "from_dimacs",
]

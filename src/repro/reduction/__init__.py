"""The paper's core contribution: logic-guided input reduction.

- :mod:`repro.reduction.problem` — the Input Reduction Problem
  (Definition 4.1): a variable universe ``I``, a black-box predicate
  ``P``, and a CNF validity constraint ``R``.
- :mod:`repro.reduction.gbr` — Generalized Binary Reduction
  (Algorithm 1), the paper's new algorithm.
- :mod:`repro.reduction.progression` — the PROGRESSION subroutine.
- :mod:`repro.reduction.binary` — J-Reduce's binary reduction over lists
  of sets (the graph-based baseline).
- :mod:`repro.reduction.lossy` — the two lossy encodings of non-graph
  clauses into graph constraints (Section 4.3).
- :mod:`repro.reduction.ddmin` — Zeller & Hildebrandt's ddmin baseline.
- :mod:`repro.reduction.reference` — an exact exponential reducer for
  small instances (optimality-gap testing).
- :mod:`repro.reduction.ordering` — variable-order heuristics for MSA_<.
- :mod:`repro.reduction.predicate` — instrumented predicate wrappers
  (caching, counting, reduction-over-time timelines).
"""

from repro.reduction.problem import (
    BudgetExhausted,
    ReductionError,
    ReductionProblem,
    ReductionResult,
)
from repro.reduction.predicate import InstrumentedPredicate, best_so_far
from repro.reduction.ordering import declaration_order, dependency_order
from repro.reduction.progression import Progression, build_progression
from repro.reduction.gbr import generalized_binary_reduction
from repro.reduction.binary import binary_reduction, binary_reduce_sets
from repro.reduction.lossy import LossyVariant, lossy_graph_encoding, lossy_reduce
from repro.reduction.ddmin import ddmin
from repro.reduction.reference import optimal_solution
from repro.reduction.strategies import STRATEGIES, run_strategy

__all__ = [
    "ReductionProblem",
    "ReductionResult",
    "ReductionError",
    "BudgetExhausted",
    "InstrumentedPredicate",
    "best_so_far",
    "declaration_order",
    "dependency_order",
    "Progression",
    "build_progression",
    "generalized_binary_reduction",
    "binary_reduction",
    "binary_reduce_sets",
    "LossyVariant",
    "lossy_graph_encoding",
    "lossy_reduce",
    "ddmin",
    "optimal_solution",
    "STRATEGIES",
    "run_strategy",
]

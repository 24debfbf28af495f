"""Generalized Binary Reduction (Algorithm 1 of the paper).

GBR solves the Input Reduction Problem approximately in polynomial time.
It maintains:

- the variable order ``<`` (a total order of ``I``),
- the current progression ``D`` (the search space, a list of disjoint
  sets every prefix of which is valid),
- the learned sets ``L`` (each overlaps every bug-preserving valid
  sub-input inside the search space).

Main loop: while ``P(D_0)`` fails, binary-search the shortest prefix
``D_{<=r}`` whose union satisfies ``P``, learn ``D_r``, and rebuild the
progression inside ``D_{<=r}``.  Every iteration learns a set with a new
``<``-smallest element, so there are at most ``|I|`` iterations; each
iteration runs the predicate O(log |D|) times.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, List, Optional, Sequence

from repro.observability import get_metrics, get_tracer, scoped_metrics
from repro.reduction.ordering import declaration_order, dependency_order
from repro.reduction.predicate import InstrumentedPredicate, best_so_far
from repro.reduction.problem import (
    BudgetExhausted,
    ReductionError,
    ReductionProblem,
    ReductionResult,
    Stopwatch,
)
from repro.reduction.progression import Progression, ProgressionEngine

__all__ = ["generalized_binary_reduction", "GbrTrace"]

VarName = Hashable


class GbrTrace:
    """Optional observer collecting per-iteration facts (for tests/docs)."""

    def __init__(self) -> None:
        self.progressions: List[Progression] = []
        self.learned: List[FrozenSet[VarName]] = []
        self.prefix_indices: List[int] = []

    def on_progression(self, progression: Progression) -> None:
        self.progressions.append(progression)

    def on_learn(self, learned_set: FrozenSet[VarName], r: int) -> None:
        self.learned.append(learned_set)
        self.prefix_indices.append(r)


def generalized_binary_reduction(
    problem: ReductionProblem,
    order: Optional[Sequence[VarName]] = None,
    require_true: FrozenSet[VarName] = frozenset(),
    trace: Optional[GbrTrace] = None,
    max_iterations: Optional[int] = None,
    speculate: int = 1,
    probe_executor=None,
) -> ReductionResult:
    """Run GBR on a reduction problem.

    Args:
        problem: the ``(I, P, R)`` instance.
        order: the total order ``<``; defaults to the dependency order
            derived from the graph constraints (declaration order breaks
            ties).
        require_true: variables every candidate must contain (e.g. the
            ``[M.main()!code]`` entry point).  GBR also works when these
            are expressed as unit clauses in ``R``.
        trace: optional :class:`GbrTrace` observer.
        max_iterations: safety valve; defaults to ``|I| + 1``.
        speculate: probes evaluated concurrently per prefix-search round
            (see :mod:`repro.parallel.speculate`).  1 is the sequential
            binary search; higher widths need ``probe_executor`` and
            leave the result byte-identical — except that a run with a
            *limiting* budget is silently searched sequentially, so its
            anytime partial result stays deterministic
            (``speculate.budget_serialized`` counts this).
        probe_executor: a live ``concurrent.futures`` pool for the
            speculative probes; ignored when ``speculate <= 1``.

    Returns:
        A :class:`ReductionResult` whose ``solution`` satisfies both
        ``P`` and ``R``.
    """
    watch = Stopwatch()
    tracer = get_tracer()
    predicate = _instrument(problem)
    calls_before = predicate.calls
    queries_before = predicate.queries
    timeline_before = len(predicate.timeline)
    constraint = problem.constraint
    if order is None:
        order = dependency_order(constraint, problem.variables)
    else:
        order = list(order)

    universe = problem.universe
    limit = max_iterations if max_iterations is not None else len(universe) + 1

    with scoped_metrics() as run_metrics, tracer.span(
        "gbr.run", variables=len(universe), description=problem.description
    ) as run_span:
        width = 1
        if speculate > 1 and probe_executor is not None:
            # Lazy import: repro.parallel pulls in the corpus executor,
            # which imports the harness, which imports this module.
            from repro.parallel.speculate import speculation_allowed

            if speculation_allowed(predicate):
                width = speculate
        # One engine per run: learned clauses accumulate and the scope
        # only shrinks, so every rebuild reuses the same compiled
        # constraint and solver session.
        engine = ProgressionEngine(constraint, order)
        learned: List[FrozenSet[VarName]] = []
        scope = universe
        progression = engine.build(scope, require_true)
        if trace:
            trace.on_progression(progression)

        iterations = 0
        status = "complete"
        try:
            while True:
                if width > 1:
                    # Fused round: the loop-head check P(D_0) rides the
                    # first speculative batch together with the full-
                    # union check and the first candidates, saving two
                    # serial predicate rounds per iteration.  Commit
                    # order keeps the result byte-identical (see
                    # repro.parallel.speculate).
                    from repro.parallel.speculate import (
                        speculative_shortest_prefix,
                    )

                    r = speculative_shortest_prefix(
                        predicate, progression, width, probe_executor
                    )
                    if r is None:
                        break
                elif predicate(progression.first):
                    break
                else:
                    r = -1  # search inside the iteration span below
                iterations += 1
                if iterations > limit:
                    raise ReductionError(
                        "GBR exceeded its iteration bound; "
                        "is the predicate monotone on valid sub-inputs?"
                    )
                run_metrics.counter("gbr.iterations").inc()
                with tracer.span(
                    "gbr.iteration",
                    iteration=iterations,
                    progression_entries=len(progression),
                ):
                    if r < 0:
                        r = _shortest_satisfying_prefix(
                            predicate, progression
                        )
                    learned_set = progression[r]
                    learned.append(learned_set)
                    engine.learn(learned_set)
                    if trace:
                        trace.on_learn(learned_set, r)
                    scope = progression.prefix_union(r)
                    progression = engine.build(scope, require_true)
                if trace:
                    trace.on_progression(progression)
            solution = progression.first
        except BudgetExhausted:
            # Anytime contract (Figure 8b): the predicate budget is
            # spent, so stop here and return the smallest satisfying
            # sub-input seen so far instead of raising.
            status = "partial"
            solution = best_so_far(predicate, universe)
        run_span.set_attr("iterations", iterations)
        run_span.set_attr("solution_size", len(solution))
        run_span.set_attr("status", status)

    return ReductionResult(
        solution=solution,
        strategy="gbr",
        predicate_calls=predicate.calls - calls_before,
        elapsed_seconds=watch.elapsed(),
        iterations=iterations,
        timeline=list(predicate.timeline[timeline_before:]),
        status=status,
        extras={
            "metrics": _run_metrics(
                run_metrics, predicate, calls_before, queries_before
            )
        },
    )


def _instrument(problem: ReductionProblem) -> InstrumentedPredicate:
    predicate = problem.predicate
    if isinstance(predicate, InstrumentedPredicate):
        return predicate
    return InstrumentedPredicate(predicate)


def _run_metrics(
    run_metrics,
    predicate: InstrumentedPredicate,
    calls_before: int,
    queries_before: int,
) -> dict:
    """Telemetry for ``ReductionResult.extras['metrics']``.

    ``run_metrics`` is this run's scoped registry (see
    :func:`repro.observability.scoped_metrics`), so the counters cover
    exactly this run even when other reductions execute concurrently.
    The predicate hit rate is computed from start-of-run snapshots of
    the wrapper's ``calls``/``queries``, so it is exact even when the
    same wrapper is shared across runs.
    """
    run = {
        name: value
        for name, value in run_metrics.counter_values().items()
        if value
    }
    queries = predicate.queries - queries_before
    calls = predicate.calls - calls_before
    run["predicate.cache_hit_rate"] = (
        round(1.0 - calls / queries, 4) if queries else 0.0
    )
    return run


def _shortest_satisfying_prefix(
    predicate: Callable[[FrozenSet[VarName]], bool],
    progression: Progression,
) -> int:
    """Binary search for min r >= 1 with ``P(D_{<=r})``.

    Precondition: ``P(D_0)`` is false.  The full union satisfies ``P``
    by the loop invariant; if even it fails, the predicate was not
    monotone (or the progression lost part of the bug), which we report.

    This is the width-1 search; speculative iterations go through
    :func:`repro.parallel.speculate.speculative_shortest_prefix`, which
    returns the identical index.  ``gbr.probes`` counts logical probes
    issued by the search; ``gbr.probes_cached`` counts the subset the
    predicate's memo already held (answered without a fresh call).
    """
    metrics = get_metrics()
    probes = metrics.counter("gbr.probes")
    probes_cached = metrics.counter("gbr.probes_cached")
    peek = getattr(predicate, "peek", None)
    with get_tracer().span(
        "gbr.prefix_search", entries=len(progression), width=1
    ) as sp:
        low = 0  # known failing
        high = len(progression) - 1  # expected satisfying
        if high > 0:
            probes.inc()
            full_union = progression.prefix_union(high)
            if peek is not None and peek(full_union) is not None:
                probes_cached.inc()
        if high == 0 or not predicate(full_union):
            raise ReductionError(
                "the whole search space no longer satisfies P; "
                "the predicate is not monotone on valid sub-inputs"
            )
        while high - low > 1:
            mid = (low + high) // 2
            probes.inc()
            union = progression.prefix_union(mid)
            if peek is not None and peek(union) is not None:
                probes_cached.inc()
            if predicate(union):
                high = mid
            else:
                low = mid
        sp.set_attr("prefix_index", high)
    return high

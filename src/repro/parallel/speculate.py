"""Speculative k-ary prefix search for GBR's inner binary search.

The shortest-satisfying-prefix search in :mod:`repro.reduction.gbr` is
an interval-shrinking loop over a *threshold* predicate: the prefix
unions of a progression are nested and every one of them is valid
(INV-PRO), so the monotone predicate ``P`` is true exactly on the
prefixes at or above some minimal index ``r``.  A sequential binary
search probes one midpoint per round; when a worker pool is idle that
leaves hardware on the table — the paper's predicate is a ~33-second
decompile+compile cycle, and k probes of it can run concurrently.

:func:`speculative_interval_search` evaluates ``k`` interior candidates
per round (:func:`candidate_midpoints`) as one batch
(:meth:`~repro.reduction.predicate.InstrumentedPredicate.evaluate_batch`)
and **commits the outcomes in ascending candidate order**: a candidate
tightens the interval only while it still lies strictly inside the
current ``(low, high)``.  Determinism argument: because ``P`` is a
threshold predicate on the prefix chain, every committed outcome is
consistent with the same threshold ``r``, any interval-tightening
sequence preserves the invariant "``P(prefix(low))`` false,
``P(prefix(high))`` true", and the loop only stops at ``high - low <=
1`` — so the returned ``high`` equals ``r``, the exact index the
sequential search returns.  The learned-set trajectory, and therefore
the whole reduction trace and final solution, is byte-identical
(differential-tested in ``tests/parallel/test_speculate.py``).

Cost accounting is honest: every speculative probe is a physical
predicate call that hits the budget/cache/store as usual, but
``simulated_seconds`` charges max-of-batch per round (the batch runs
concurrently).  ``speculate.rounds`` / ``speculate.probes_useful`` /
``speculate.probes_wasted`` expose the tradeoff; for ``k = 1`` the
candidate formula degenerates to the binary-search midpoint exactly,
so the speculative loop issues the same probe sequence as the
sequential one.

Budgets: honest per-attempt budget charging is order-dependent — a
wasted speculative probe can spend the call that a sequential run would
have used on a useful one, so *partial* (budget-exhausted) results
could diverge.  GBR therefore refuses to speculate when a limiting
:class:`~repro.resilience.budget.Budget` sits in the predicate chain
(``speculate.budget_serialized`` counts the downgrade); see DESIGN.md
§8.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.observability import get_metrics, get_tracer, probe_scope

__all__ = [
    "candidate_midpoints",
    "speculative_interval_search",
    "speculative_shortest_prefix",
    "speculation_allowed",
]

VarName = Hashable


def candidate_midpoints(low: int, high: int, width: int) -> List[int]:
    """Up to ``width`` distinct candidates strictly inside ``(low, high)``.

    The ``i``-th candidate is ``low + (i * (high - low)) // (width + 1)``
    — equal partition points of the open interval.  For ``width == 1``
    this is exactly the binary-search midpoint ``(low + high) // 2``.
    """
    if width < 1:
        raise ValueError(f"speculation width must be >= 1, got {width}")
    span = high - low
    seen = set()
    mids: List[int] = []
    for i in range(1, width + 1):
        mid = low + (i * span) // (width + 1)
        if low < mid < high and mid not in seen:
            seen.add(mid)
            mids.append(mid)
    if not mids and span > 1:
        mids.append((low + high) // 2)
    return mids


class _Rounds:
    """A speculative search's round steps: one batch, one ascending commit."""

    def __init__(self, predicate, executor):
        metrics = get_metrics()
        self._probes = metrics.counter("gbr.probes")
        self._probes_cached = metrics.counter("gbr.probes_cached")
        self._rounds = metrics.counter("speculate.rounds")
        self._useful = metrics.counter("speculate.probes_useful")
        self.wasted = metrics.counter("speculate.probes_wasted")
        self._predicate = predicate
        self._executor = executor

    def issue(
        self, batch: list, round_no: int, low: int, high: int,
        head: int = 0,
    ) -> List[bool]:
        """Evaluate one round's ``batch`` as one speculative batch.

        The first ``head`` entries are not search probes (the fused
        round's loop-head check): ``gbr.probes`` and
        ``gbr.probes_cached`` count the rest, as the sequential search
        would.
        """
        self._rounds.inc()
        searched = batch[head:]
        self._probes.inc(len(searched))
        cached = sum(
            1 for union in searched if self._predicate.peek(union) is not None
        )
        if cached:
            self._probes_cached.inc(cached)
        with get_tracer().span(
            "speculate.round", low=low, high=high, candidates=len(batch)
        ):
            with probe_scope(round=round_no):
                return self._predicate.evaluate_batch(
                    batch, executor=self._executor
                )

    def tighten(
        self, low: int, high: int, mids: List[int], outcomes: List[bool]
    ) -> Tuple[int, int]:
        """Commit candidate outcomes in ascending order.

        A candidate that fell outside the already-tightened interval is
        wasted speculation (its outcome is implied by a committed one).
        """
        for mid, outcome in zip(mids, outcomes):
            if low < mid < high:
                if outcome:
                    high = mid
                else:
                    low = mid
                self._useful.inc()
            else:
                self.wasted.inc()
        return low, high


def speculative_interval_search(
    predicate,
    progression,
    low: int,
    high: int,
    width: int,
    executor,
    round_start: int = 0,
) -> int:
    """Shrink ``(low, high)`` to ``high - low <= 1`` via k-ary rounds.

    ``round_start`` numbers the first round in the probe provenance
    ledger (the fused head search passes 1, its own batch being 0).

    Preconditions (the caller's binary-search invariant):
    ``P(prefix_union(low))`` is false (or ``low == 0``, known failing)
    and ``P(prefix_union(high))`` is true.  Returns the final ``high`` —
    the same minimal satisfying index the sequential search finds.

    ``predicate`` must expose ``evaluate_batch`` (an
    :class:`~repro.reduction.predicate.InstrumentedPredicate`);
    ``executor`` is a live ``concurrent.futures`` pool.
    """
    rounds = _Rounds(predicate, executor)
    round_no = round_start
    while high - low > 1:
        mids = candidate_midpoints(low, high, width)
        unions = [progression.prefix_union(mid) for mid in mids]
        outcomes = rounds.issue(unions, round_no, low, high)
        low, high = rounds.tighten(low, high, mids, outcomes)
        round_no += 1
    return high


def speculative_shortest_prefix(
    predicate,
    progression,
    width: int,
    executor,
):
    """Fused loop-head check + prefix search, one batch per round.

    GBR's sequential main loop issues three probes serially before the
    interval even starts shrinking: the loop-head check ``P(D_0)``, the
    monotonicity check on the full union, and the first midpoint.  This
    variant rides all three on the first speculative batch, so a
    width-``k`` iteration costs ``~log_{k+1}(n)`` predicate rounds
    instead of ``2 + log2(n)``.

    Returns ``None`` when ``P(D_0)`` holds (the main loop terminates),
    else the minimal satisfying prefix index.  Determinism: outcomes are
    committed in the exact order the sequential loop would have issued
    them — ``D_0`` first (a true outcome discards everything else as
    wasted speculation), the full union second (a false outcome raises
    the same non-monotonicity error), interior candidates in ascending
    order last — so the returned index, and therefore the learned-set
    trajectory, is byte-identical to the sequential run.

    Raises :class:`~repro.reduction.problem.ReductionError` when the
    full union fails ``P`` (the sequential search's monotonicity check).
    """
    from repro.reduction.problem import ReductionError

    rounds = _Rounds(predicate, executor)
    low = 0
    high = len(progression) - 1
    with get_tracer().span(
        "gbr.prefix_search", entries=len(progression), width=width
    ) as sp:
        mids = candidate_midpoints(low, high, width)
        batch = [progression.first]
        if high > 0:
            batch.append(progression.prefix_union(high))
        batch.extend(progression.prefix_union(mid) for mid in mids)
        # The head check is the main loop's own probe, not a search
        # probe — ``gbr.probes`` counts the others, as sequentially.
        outcomes = rounds.issue(batch, 0, low, high, head=1)
        if outcomes[0]:
            # P(D_0) holds: the sequential loop would have stopped
            # before probing anything else this iteration.
            rounds.wasted.inc(len(batch) - 1)
            sp.set_attr("prefix_index", 0)
            return None
        if high == 0 or not outcomes[1]:
            raise ReductionError(
                "the whole search space no longer satisfies P; "
                "the predicate is not monotone on valid sub-inputs"
            )
        low, high = rounds.tighten(low, high, mids, outcomes[2:])
        high = speculative_interval_search(
            predicate, progression, low, high, width, executor,
            round_start=1,
        )
        sp.set_attr("prefix_index", high)
    return high


def speculation_allowed(predicate) -> bool:
    """Can this predicate be probed speculatively without changing results?

    Requires batch support and — the determinism contract — **no
    limiting budget** in the wrapper chain: budgets charge per physical
    attempt, so speculative (partially wasted) probing would move the
    exhaustion point and change which anytime partial result a budgeted
    run returns.  An unlimited :class:`~repro.resilience.budget.Budget`
    (the chaos harness always installs one) never exhausts, so it does
    not serialize.
    """
    if not hasattr(predicate, "evaluate_batch"):
        return False
    from repro.resilience.predicate import budget_of

    budget = budget_of(predicate)
    if budget is not None and budget.limited:
        get_metrics().counter("speculate.budget_serialized").inc()
        return False
    return True

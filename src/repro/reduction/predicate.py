"""Instrumented black-box predicates.

The paper's evaluation reports predicate-invocation counts (running the
decompiler is the expensive step), wall-clock time, and reduction *over
time* (Figure 8b: "we can stop both algorithms at any point ... and use
the smallest input until that point that preserves the error message").
:class:`InstrumentedPredicate` wraps a raw predicate and records all
three, with memoization so repeated queries on the same sub-input are
counted once — the paper's tools cache runs the same way.

Clocks: the wrapper keeps two.  The *real* clock is host wall time since
construction (or :meth:`reset_clock`).  The *virtual* clock charges
``cost_per_call`` simulated seconds per fresh invocation and nothing
else, so it is a deterministic function of the query sequence —
independent of host speed.  When a virtual cost is configured, the
timeline and :meth:`virtual_now` use only the virtual clock (that is
what the Figure 8b reproductions plot); without one, the timeline falls
back to real time.

Persistence: an optional *store* (see
:func:`repro.parallel.store.open_store`) makes outcomes survive
across processes.  On an in-memory miss the wrapper reads through to the
store; fresh outcomes are written back.  Store hits count as cache hits,
not calls, so a warm store makes repeat runs cost zero fresh predicate
invocations.

One probe path: :meth:`__call__` and :meth:`evaluate_batch` answer a
query through one answer step (memo or store: query and cache-hit
counting, the store key, the ``cache="store"`` ledger entry) and
commit a fresh outcome through one commit step (call counting, latency,
the virtual charge, memo and store writes, best-so-far, the
``cache="fresh"`` ledger entry).  Only the memo fast path of
:meth:`__call__` is inline; the paths differ in what they pass in —
the virtual charge (per sequential call, once per speculative round)
and the ledger annotations.

Batch backends: :meth:`evaluate_batch` dispatches one speculative
round's fresh probes one way — it submits
:func:`repro.parallel.procpool._evaluate_probe` to the executor it is
given.  A thread pool runs the wrapped chain itself; a process pool
(:func:`~repro.parallel.procpool.spawn_pool`) rebuilds it from the
picklable ``task_spec``.  Either way the probes' counter deltas and
span payloads are folded in and the outcomes committed parent-side in
serial index order, so results, clocks, store writes, and the
provenance ledger stay byte-identical across backends (see DESIGN.md
§10).

Telemetry: every query also feeds the active metrics registry
(``predicate.calls`` / ``predicate.queries`` / ``predicate.cache_hits``
/ ``predicate.store_hits`` / ``predicate.store_misses`` counters — the
store itself additionally emits ``store.*`` hit/miss/evict/compaction
counters, see :mod:`repro.parallel.store` — ``predicate.virtual_seconds``
simulated-cost total, ``predicate.latency_seconds`` histogram of
fresh-call latency), and fresh invocations open a ``predicate.call``
span when tracing is enabled.  Every *physical* probe — a fresh call or
a store hit, never a memo hit — additionally lands one entry in the
probe provenance ledger (:mod:`repro.observability.provenance`): cache
status, outcome, both clocks' costs, speculation round/batch position
(from the active :func:`~repro.observability.provenance.probe_scope`),
and per-probe resilience deltas: a sequential call brackets the
wrapped chain's attempt/retry/timeout/budget counters, and a batch
probe carries the ``predicate.retries``/``predicate.timeouts`` delta it
counted under its own detached registry.  Memo hits stay counter-only;
they dominate the hot path and per-event records would blow the
tracing-overhead budget.
"""

from __future__ import annotations

import hashlib
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability import (
    current_probe_fields,
    get_metrics,
    get_tracer,
)

__all__ = ["InstrumentedPredicate", "best_so_far"]

VarName = Hashable
Predicate = Callable[[FrozenSet[VarName]], bool]


_KEY_MASK = 0xFFFFFFFFFFFFFFFF


def _item_digest(item: VarName) -> int:
    """A stable 64-bit digest of one item (sha256 of its repr)."""
    return int.from_bytes(
        hashlib.sha256(repr(item).encode("utf-8")).digest()[:8], "big"
    )


def _probe_key(
    sub_input: FrozenSet[VarName], cache: Dict[VarName, int]
) -> str:
    """A short stable hash of a probed subset for the provenance ledger.

    Per-item sha256 digests summed mod 2^64 — order-independent,
    deterministic across processes (no ``hash()`` randomization), and
    identical for identical subsets, so ``trace explain`` can prefix-
    match a handle and equal probes in two traces carry equal keys.
    ``cache`` memoizes the per-item digests: probes re-query the same
    items all run long, and the ledger must not blow the ≤5% tracing
    overhead budget on hashing (see ``benchmarks/bench_telemetry.py``).
    """
    total = 0
    get = cache.get
    for item in sub_input:
        digest = get(item)
        if digest is None:
            digest = _item_digest(item)
            cache[item] = digest
        total = (total + digest) & _KEY_MASK
    return f"{total:016x}"


def _chain_stats(predicate: Any) -> Dict[str, float]:
    """Resilience/budget counter snapshot along the wrapped chain.

    Walks ``_predicate`` links duck-typing for a resilient layer
    (``attempts``/``retries``/``timeouts``) and a budget
    (``calls``/``seconds``).  Two snapshots bracketing a fresh call give
    the per-probe deltas the ledger records.
    """
    stats: Dict[str, float] = {}
    current = predicate
    for _ in range(8):
        if current is None:
            break
        if "attempts" not in stats and hasattr(current, "attempts"):
            stats["attempts"] = current.attempts
            stats["retries"] = getattr(current, "retries", 0)
            stats["timeouts"] = getattr(current, "timeouts", 0)
        budget = getattr(current, "budget", None)
        if budget is not None and "budget_calls" not in stats:
            stats["budget_calls"] = budget.calls
            stats["budget_seconds"] = budget.seconds
        current = getattr(current, "_predicate", None)
    return stats


def _stat_deltas(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-probe deltas of the chain counters (only keys seen after)."""
    return {key: after[key] - before.get(key, 0) for key in after}


def _batch_fields(position: int, scope, probe) -> Dict[str, Any]:
    """A batch probe's ledger annotations: its position, the round's
    scope, and the resilience deltas in its shipped counter delta."""
    counters = probe.metrics
    return {
        "batch_pos": position,
        **scope,
        "retries": counters.get("predicate.retries", 0),
        "timeouts": counters.get("predicate.timeouts", 0),
    }


class InstrumentedPredicate:
    """Counting / caching / timeline wrapper around a predicate.

    Args:
        predicate: the raw black-box predicate.
        cost_per_call: optional simulated seconds added to the *virtual*
            clock per fresh invocation.  The paper's decompile+compile
            cycle averages ~33 s; our simulated decompilers run in
            microseconds, so benchmarks can model the paper's time axis by
            charging a virtual cost without actually sleeping.
        size_of: how to measure a sub-input for the timeline (defaults to
            ``len``; the harness passes serialized-bytes measures).
        store: optional persistent predicate cache, duck-typed with
            ``lookup(fingerprint, sub_input, key=)`` returning
            ``bool | None`` and ``record(fingerprint, sub_input,
            outcome, key=)``; ``key`` is the sub-input's
            :func:`~repro.parallel.store.key_of`, computed once per
            probe through a per-predicate
            :class:`~repro.parallel.store.KeyMemo`.
        fingerprint: stable identifier of the underlying oracle; required
            when ``store`` is given (it namespaces the store entries so
            different oracles never share outcomes).
        task_spec: optional picklable
            :class:`~repro.parallel.procpool.ProbeTaskSpec` describing
            how a worker *process* rebuilds this predicate's chain;
            required for :meth:`evaluate_batch` to run on a
            :func:`~repro.parallel.procpool.spawn_pool`.
    """

    def __init__(
        self,
        predicate: Predicate,
        cost_per_call: float = 0.0,
        size_of: Optional[Callable[[FrozenSet[VarName]], int]] = None,
        store=None,
        fingerprint: Optional[str] = None,
        task_spec=None,
    ):
        if store is not None and not fingerprint:
            raise ValueError(
                "a predicate store needs an oracle fingerprint to key by"
            )
        self._predicate = predicate
        self._cost_per_call = cost_per_call
        self._size_of = size_of or len
        self._store = store
        self._fingerprint = fingerprint
        self._task_spec = task_spec
        self._cache: Dict[FrozenSet[VarName], bool] = {}
        self._key_cache: Dict[VarName, int] = {}  # per-item ledger digests
        self._store_keys = None
        if store is not None:
            # Lazy: repro.parallel imports the harness, which imports
            # this module.
            from repro.parallel.store import KeyMemo

            self._store_keys = KeyMemo()
        self.calls = 0  # fresh (uncached) invocations
        self.queries = 0  # all queries, cached included
        self.store_hits = 0  # queries answered by the persistent store
        self.virtual_clock = 0.0
        self.best_size: Optional[int] = None
        self.best_input: Optional[FrozenSet[VarName]] = None
        self.timeline: List[Tuple[float, int]] = []
        self._start = time.perf_counter()

    def __call__(self, sub_input: FrozenSet[VarName]) -> bool:
        sub_input = frozenset(sub_input)
        cached = self._cache.get(sub_input)
        if cached is not None:
            # The memo fast path, inline: it answers most queries.
            self.queries += 1
            metrics = get_metrics()
            metrics.counter("predicate.queries").inc()
            metrics.counter("predicate.cache_hits").inc()
            return cached
        metrics = get_metrics()
        tracer = get_tracer()
        fields = current_probe_fields() if tracer.enabled else {}
        outcome, key = self._answer(sub_input, metrics, tracer, fields)
        if outcome is not None:
            return outcome
        before_stats = _chain_stats(self._predicate) if tracer.enabled else {}
        with tracer.span("predicate.call", size=len(sub_input)) as sp:
            before = time.perf_counter()
            outcome = self._predicate(sub_input)
            sp.set_attr("outcome", outcome)
        latency = time.perf_counter() - before
        if tracer.enabled:
            fields = dict(
                fields,
                span_id=sp.span_id,
                **_stat_deltas(before_stats, _chain_stats(self._predicate)),
            )
        # Committed only after the call returns: an invocation that
        # raises (budget exhausted, unrecoverable oracle crash) never
        # ran to completion, so it must not inflate the fresh-call
        # counter or the virtual clock that anytime partial results are
        # judged by.
        self._commit(
            sub_input, key, outcome, latency, self._cost_per_call,
            metrics, tracer, fields,
        )
        return outcome

    def _answer(
        self, sub_input, metrics, tracer, fields
    ) -> Tuple[Optional[bool], Optional[str]]:
        """Answer a query from the memo or the store: ``(outcome, key)``.

        Counts the query.  A memo or store hit counts as a cache hit; a
        store hit also lands in the memo and best-so-far and emits a
        ``cache="store"`` ledger entry annotated with ``fields``.
        ``outcome`` is None on a miss, which the caller settles with a
        fresh call and :meth:`_commit`; ``key`` is the sub-input's store
        key, computed once per probe (None without a store).
        """
        self.queries += 1
        metrics.counter("predicate.queries").inc()
        cached = self._cache.get(sub_input)
        if cached is not None:
            metrics.counter("predicate.cache_hits").inc()
            return cached, None
        if self._store is None:
            return None, None
        key = self._store_keys(sub_input)
        stored = self._store.lookup(self._fingerprint, sub_input, key=key)
        if stored is None:
            metrics.counter("predicate.store_misses").inc()
            return None, key
        self.store_hits += 1
        metrics.counter("predicate.cache_hits").inc()
        metrics.counter("predicate.store_hits").inc()
        self._cache[sub_input] = stored
        if stored:
            self._note_success(sub_input)
        if tracer.enabled:
            self._ledger(
                tracer, sub_input, "store", stored, 0.0, 0.0, **fields
            )
        return stored, key

    def _commit(
        self, sub_input, key, outcome, latency, charge, metrics, tracer,
        fields,
    ) -> None:
        """Commit one fresh outcome: counters, clock, memo, store, ledger.

        ``charge`` is the simulated seconds booked on the virtual clock:
        ``cost_per_call`` on the sequential path and on a speculative
        round's first committed outcome, None for the rest of the round
        (their calls overlapped the charged one).  The ledger entry is
        annotated with ``fields``.
        """
        self.calls += 1
        metrics.counter("predicate.calls").inc()
        metrics.histogram("predicate.latency_seconds").observe(latency)
        if charge is None:
            charge = 0.0
        else:
            self.virtual_clock += charge
            metrics.counter("predicate.virtual_seconds").inc(charge)
        self._cache[sub_input] = outcome
        if self._store is not None:
            self._store.record(self._fingerprint, sub_input, outcome, key=key)
        if outcome:
            self._note_success(sub_input)
        if tracer.enabled:
            self._ledger(
                tracer, sub_input, "fresh", outcome, latency, charge, **fields
            )

    def _ledger(
        self, tracer, sub_input, cache, outcome, wall_seconds,
        virtual_charge, **fields,
    ) -> None:
        """Emit one probe provenance ledger entry (tracing is on)."""
        tracer.event(
            "probe",
            key=_probe_key(sub_input, self._key_cache),
            cache=cache,
            outcome=outcome,
            wall_seconds=wall_seconds,
            virtual_charge=virtual_charge,
            **fields,
        )

    def peek(self, sub_input: FrozenSet[VarName]) -> Optional[bool]:
        """The in-memory cached outcome for a sub-input, or None.

        No counters move and the store is not consulted — this exists so
        search loops can report how many of their logical probes the
        memo already held (``gbr.probes_cached``) without perturbing the
        query statistics.
        """
        return self._cache.get(frozenset(sub_input))

    def evaluate_batch(
        self,
        sub_inputs: Sequence[FrozenSet[VarName]],
        executor,
    ) -> List[bool]:
        """Evaluate one speculative round of sub-inputs concurrently.

        Every query goes through the same answer step as :meth:`__call__`
        (:meth:`_answer`), and every fresh outcome through the same
        commit step (:meth:`_commit`).  Fresh outcomes run on
        ``executor`` and are *committed in serial order* (index 0
        first), so the cache, call counters, store writes, and
        best-so-far evolve as if the round had been issued sequentially
        — with two deliberate exceptions:

        - the virtual clock advances by ``cost_per_call`` **once per
          round**, booked on the round's first *committed* fresh
          outcome, because the round's calls overlap on the pool
          (``simulated_seconds`` is max-of-batch, the time a parallel
          tool invocation would take).  A round whose every committed
          position raised charges nothing — exactly like a sequential
          raising call, which never completes and never charges;
        - if a fresh call raised, its exception is re-raised *after*
          committing every earlier-in-order outcome, and every
          later-in-order outcome is discarded uncommitted (a sequential
          run would never have issued them).  Discarded probes that
          physically *completed* still land in the provenance ledger,
          flagged ``discarded=true`` with a zero virtual charge — the
          ledger's "one event per physical probe" invariant holds even
          for work an earlier failure threw away.

        Dispatch: every fresh probe is one ``executor.submit`` of
        :func:`repro.parallel.procpool._evaluate_probe`, whatever the
        executor (see the module docstring).  Each probe's counter
        delta and ``predicate.call`` span payload are folded in and
        re-emitted via ``Tracer.adopt`` in serial order, committed or
        not — counters move as probes *run*.
        """
        # Lazy: repro.parallel imports the harness, which imports this
        # module.
        from repro.parallel.procpool import (
            ProbeResult,
            ProbeTask,
            _evaluate_probe,
        )

        inputs = [frozenset(s) for s in sub_inputs]
        results: List[Optional[bool]] = [None] * len(inputs)
        fresh: List[Tuple[int, FrozenSet[VarName], Optional[str]]] = []
        pending: Dict[FrozenSet[VarName], int] = {}
        aliases: List[Tuple[int, int]] = []
        metrics = get_metrics()
        tracer = get_tracer()
        # Captured once on the issuing thread: the speculation engine's
        # probe_scope (round number) annotates every ledger entry this
        # round commits, even though the calls run on the pool.
        scope = current_probe_fields() if tracer.enabled else {}
        for position, sub_input in enumerate(inputs):
            if sub_input in pending:
                # A duplicate within the round: a sequential run would
                # answer the repeat from the memo.
                self.queries += 1
                metrics.counter("predicate.queries").inc()
                metrics.counter("predicate.cache_hits").inc()
                aliases.append((position, pending[sub_input]))
                continue
            fields = {"batch_pos": position, **scope} if tracer.enabled else {}
            outcome, key = self._answer(sub_input, metrics, tracer, fields)
            if outcome is not None:
                results[position] = outcome
                continue
            pending[sub_input] = position
            fresh.append((position, sub_input, key))

        if fresh:
            task = ProbeTask(self._predicate, self._task_spec)
            ctx_payload = None
            if tracer.enabled:
                # The issuing task's causal position and virtual clock,
                # so each probe's ``predicate.call`` span parents onto
                # the open ``speculate.round`` span.
                ctx_payload = {
                    "ctx": tracer.current_context().to_dict(),
                    "epoch_unix": tracer.epoch_unix,
                    "vt": tracer.virtual_now(),
                }
            futures = [
                executor.submit(_evaluate_probe, task, sub_input, ctx_payload)
                for _, sub_input, _ in fresh
            ]
            settled = []
            for (position, sub_input, key), future in zip(fresh, futures):
                try:
                    probe = future.result()
                except BaseException as exc:  # noqa: BLE001 — pool failure
                    probe = ProbeResult(None, 0.0, error=exc)
                settled.append((position, sub_input, key, probe))
                for name, value in probe.metrics.items():
                    metrics.counter(name).inc(value)
                for payload in probe.events:
                    tracer.adopt(payload)
            self._commit_settled(settled, results, metrics, tracer, scope)

        for position, source in aliases:
            results[position] = results[source]
        return [bool(r) for r in results]

    def _commit_settled(self, settled, results, metrics, tracer, scope):
        """Commit one round's fresh outcomes in serial index order.

        A loop over :meth:`_commit`, charging the round once; the rules
        for a raised probe are :meth:`evaluate_batch`'s.
        """
        charge = self._cost_per_call
        for index, (position, sub_input, key, probe) in enumerate(settled):
            if probe.error is not None:
                if tracer.enabled:
                    for later_position, later_input, _, later in (
                        settled[index + 1:]
                    ):
                        if later.error is None:
                            self._ledger(
                                tracer, later_input, "fresh", later.outcome,
                                later.wall_seconds, 0.0, discarded=True,
                                **_batch_fields(later_position, scope, later),
                            )
                raise probe.error
            fields = (
                _batch_fields(position, scope, probe) if tracer.enabled else {}
            )
            self._commit(
                sub_input, key, probe.outcome, probe.wall_seconds, charge,
                metrics, tracer, fields,
            )
            # The round ran concurrently: one call's worth of simulated
            # time covers the whole batch (max-of-batch).
            charge = None
            results[position] = probe.outcome

    def _note_success(self, sub_input: FrozenSet[VarName]) -> None:
        size = self._size_of(sub_input)
        if self.best_size is None or size < self.best_size:
            self.best_size = size
            self.best_input = sub_input
            stamp = (
                self.virtual_now() if self._cost_per_call else self.now()
            )
            self.timeline.append((stamp, size))

    def now(self) -> float:
        """Elapsed time: real seconds plus the simulated per-call cost."""
        return (time.perf_counter() - self._start) + self.virtual_clock

    def virtual_now(self) -> float:
        """The simulated clock alone: ``cost_per_call`` × fresh calls.

        Deterministic across hosts and thread interleavings — this is
        the "simulated seconds" axis the harness and Figure 8b use
        (:meth:`now` mixes in real machine time and is only suitable for
        wall-clock reporting).
        """
        return self.virtual_clock

    def reset_clock(self) -> None:
        """Restart only the time axis (clock + virtual cost).

        The cache, counters, timeline, and best-so-far survive — use
        :meth:`reset` to make the wrapper safe for reuse across runs.
        """
        self._start = time.perf_counter()
        self.virtual_clock = 0.0

    def reset(self) -> None:
        """Forget everything: cache, counters, best-so-far, timeline, clock.

        Strategies that reuse one instrumented predicate across runs
        (e.g. back-to-back experiments on the same oracle) must call
        this between runs, otherwise ``calls``/``timeline``/``best_*``
        from the previous run leak into the next result.  The persistent
        store (if any) is external state and is deliberately kept.
        """
        self._cache.clear()
        self.calls = 0
        self.queries = 0
        self.store_hits = 0
        self.best_size = None
        self.best_input = None
        self.timeline.clear()
        self.reset_clock()


def best_so_far(
    predicate: Callable[[FrozenSet[VarName]], bool],
    fallback: FrozenSet[VarName],
) -> FrozenSet[VarName]:
    """The smallest satisfying sub-input a wrapper has seen, or a fallback.

    The anytime contract (Figure 8b: "stop both algorithms at any point
    and use the smallest input until that point") is implemented by
    reading the instrumented wrapper's ``best_input``.  When the run was
    cut off before *any* satisfying query (or the predicate is not an
    :class:`InstrumentedPredicate`), the fallback — the full input, which
    satisfies the predicate by Definition 4.1's assumptions — is the
    best-known answer.
    """
    best = getattr(predicate, "best_input", None)
    return best if best is not None else frozenset(fallback)

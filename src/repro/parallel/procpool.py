"""Probe dispatch: one worker function for thread and process pools.

The blunt lesson of thread speculation: speculative probing wins 2.38x
in *simulated* seconds but loses wall-clock (0.85x), because probe materialization +
decompile + javac are pure-Python CPU work — a ``ThreadPoolExecutor``
overlaps none of it under the GIL.  The paper's premise is the
opposite: the predicate is an external ~33-second tool invocation, and
k of them genuinely run at once.  This module makes that real by
letting *fresh* physical probes run on a process pool too.

The contract (DESIGN.md §10) has three parts:

- **One dispatch.**  :meth:`~repro.reduction.predicate
  .InstrumentedPredicate.evaluate_batch` submits :func:`_evaluate_probe`
  with a :class:`ProbeTask` to whatever executor it is given.  A thread
  pool runs the task's live chain.  A process pool pickles the task,
  which keeps only its :class:`ProbeTaskSpec` — a frozen, picklable
  recipe: the serialized application bytes (``serialize_application``
  round-trips exactly), the scenario and decompiler *name* (resolved by
  :func:`build_oracle`), the granularity, and the chain knobs (seeded
  :class:`~repro.resilience.faults.FaultPlan`, retries, deadline, tool
  latency).  Workers rebuild the chain with :func:`build_chain` and
  cache it per spec, so one pickle+rebuild amortizes over every probe
  of a run.  Probe *inputs* are frozensets of the frozen item
  dataclasses from :mod:`repro.bytecode.items` — picklable by
  construction.
- **Worker results.**  :func:`_evaluate_probe` returns a
  :class:`ProbeResult` — verdict (or the raised exception, relayed
  rather than thrown so its metrics survive), wall latency, the
  probe's counter *delta* (recorded under a detached registry), and a
  handcrafted ``predicate.call`` span payload the parent re-emits via
  :meth:`~repro.observability.spans.Tracer.adopt`.
- **Serial commit.**  The parent folds the deltas and payloads in and
  commits results in serial index order: cache writes, store
  write-back (the persistent cache tier of :mod:`repro.parallel.store`
  stays entirely parent-side — workers never open the store, so its
  single-``os.write`` shard-append discipline holds per parent
  process), virtual clock, and the probe provenance ledger all evolve
  as if the round had been issued sequentially, so results stay
  byte-identical across ``--probe-backend {thread,process}`` and
  sequential runs.

Chaos parity: a worker rebuilds its *own* seeded fault injector (same
derived seed, fresh call counter), so the per-call fault schedule is
not the parent's — but the supported chaos modes are truth-preserving
(transient errors + retries recover the true outcome), so the
*results* remain byte-identical; the differential suite in
``tests/parallel/test_procpool.py`` pins this down.

:class:`ToolLatencyPredicate` models the paper's external tool as a
real per-invocation sleep (``--tool-latency-ms``): unlike the
simulated virtual clock, a sleep is *observable* wall time that a
process (or thread) pool genuinely overlaps, so it is what a pool's
wall speedup is measured against.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
)

from repro.observability import MetricsRegistry, scoped_metrics
from repro.resilience import Budget, ResilientPredicate
from repro.resilience.faults import FaultPlan, derive_seed

__all__ = [
    "ProbeTask",
    "ProbeTaskSpec",
    "ProbeResult",
    "ToolLatencyPredicate",
    "build_chain",
    "build_oracle",
    "build_worker_predicate",
    "spawn_pool",
    "worker_label",
]

VarName = Hashable
Predicate = Callable[[FrozenSet[VarName]], bool]


class ToolLatencyPredicate:
    """A predicate that pays a real per-invocation tool latency.

    Sits *innermost* in the chain (directly around the raw oracle), in
    both the parent's sequential chain and the worker replicas, so
    every backend pays the identical latency per physical attempt and
    wall-clock comparisons between them are honest.
    """

    def __init__(self, predicate: Predicate, latency_seconds: float) -> None:
        if latency_seconds < 0:
            raise ValueError(
                f"tool latency must be >= 0, got {latency_seconds}"
            )
        self._predicate = predicate
        self.latency_seconds = latency_seconds

    def __call__(self, sub_input: FrozenSet[VarName]) -> bool:
        time.sleep(self.latency_seconds)
        return self._predicate(sub_input)


def build_chain(
    raw: Predicate,
    budget: Budget,
    *,
    tool_latency_seconds: float = 0.0,
    chaos: Optional[FaultPlan] = None,
    chaos_key: str = "",
    retries: int = 0,
    deadline_seconds: Optional[float] = None,
) -> Predicate:
    """The predicate chain below the cache, for parent and worker alike.

    Raw oracle → tool latency → chaos injector →
    :class:`~repro.resilience.ResilientPredicate`, each layer only when
    a knob asks for it.  The parent passes the run's budget; a worker
    passes a fresh unlimited one — a *limiting* budget never reaches a
    pool, because ``speculation_allowed`` serializes it.  The
    :class:`~repro.reduction.predicate.InstrumentedPredicate` layer
    stays parent-side: memoization, the store, and the clocks are
    committed serially there.
    """
    wrapped = raw
    if tool_latency_seconds > 0:
        wrapped = ToolLatencyPredicate(wrapped, tool_latency_seconds)
    if chaos is not None:
        wrapped = chaos.apply(wrapped, chaos_key)
    if (
        chaos is not None
        or retries > 0
        or deadline_seconds is not None
        or budget.limited
    ):
        wrapped = ResilientPredicate(
            wrapped,
            budget=budget,
            retries=retries,
            deadline_seconds=deadline_seconds,
            seed=derive_seed(0, chaos_key),
        )
    return wrapped


def build_oracle(app, scenario: str, decompiler: str, benchmark_id: str):
    """The one recipe for rebuilding an instance's oracle from its app.

    ``"debloat"`` instances get the coverage oracle (seeded by the
    benchmark id, so every process derives the same profile); the
    paper's reduction scenario gets the named decompiler's oracle.
    """
    if scenario == "debloat":
        from repro.workloads.debloat import DebloatOracle

        return DebloatOracle(app, benchmark_id)
    from repro.decompiler.oracle import DecompilerOracle

    return DecompilerOracle(app, decompiler)


@dataclass(frozen=True)
class ProbeTaskSpec:
    """A picklable recipe for rebuilding a predicate chain in a worker.

    ``kind == "oracle"`` rebuilds the instance's oracle from
    ``app_bytes`` (the exact ``serialize_application`` round-trip) via
    :func:`build_oracle`; ``kind == "callable"`` ships a small
    picklable predicate directly (the CLI's containment oracle).

    The spec doubles as the worker-side cache key (it is frozen and
    hashable), so every field must be immutable: the chaos plan is the
    frozen :class:`FaultPlan`, and ``chaos_key`` is the same per-
    instance derivation key the harness feeds ``derive_seed`` — the
    worker replica chains are seeded identically to the parent's.
    """

    kind: str = "oracle"
    app_bytes: Optional[bytes] = None
    decompiler: Optional[str] = None
    granularity: str = "item"
    scenario: str = "reduction"
    benchmark_id: str = ""
    predicate: Optional[Predicate] = None
    chaos: Optional[FaultPlan] = None
    chaos_key: str = ""
    retries: int = 0
    deadline_seconds: Optional[float] = None
    tool_latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("oracle", "callable"):
            raise ValueError(
                f"kind must be 'oracle' or 'callable', got {self.kind!r}"
            )
        if self.kind == "oracle":
            if self.app_bytes is None or self.decompiler is None:
                raise ValueError(
                    "an 'oracle' task spec needs app_bytes and a "
                    "decompiler name"
                )
            if self.granularity not in ("item", "class"):
                raise ValueError(
                    f"granularity must be 'item' or 'class', "
                    f"got {self.granularity!r}"
                )
        elif self.predicate is None:
            raise ValueError("a 'callable' task spec needs a predicate")


class ProbeTask:
    """What a probe pool runs: the parent's live chain and its recipe.

    A thread pool receives the task as is and runs the live ``chain``.
    Pickling — the hop into a worker process — keeps only the ``spec``,
    from which the worker rebuilds the chain.  The parent therefore
    submits the same function and the same task to either backend.
    """

    def __init__(
        self, chain: Optional[Predicate], spec: Optional[ProbeTaskSpec]
    ) -> None:
        self.chain = chain
        self.spec = spec

    def __reduce__(self):
        if self.spec is None:
            raise ValueError(
                "a process probe pool needs an InstrumentedPredicate "
                "built with task_spec= (the picklable chain recipe)"
            )
        return (ProbeTask, (None, self.spec))


@dataclass
class ProbeResult:
    """What one probe sends back for the serial commit.

    ``error`` relays a raised exception instead of letting it escape
    through the future, so the attempt's metrics delta (retries,
    timeouts) still reaches the parent; the parent re-raises it at the
    probe's serial commit position.
    """

    outcome: Optional[bool]
    wall_seconds: float
    error: Optional[BaseException] = None
    metrics: Dict[str, int] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)


def build_worker_predicate(spec: ProbeTaskSpec) -> Predicate:
    """Rebuild the parent's predicate chain (below the cache) from a spec."""
    if spec.kind == "callable":
        raw = spec.predicate
    else:
        from repro.bytecode.serializer import deserialize_application

        oracle = build_oracle(
            deserialize_application(spec.app_bytes),
            spec.scenario,
            spec.decompiler,
            spec.benchmark_id,
        )
        raw = (
            oracle.item_predicate
            if spec.granularity == "item"
            else oracle.class_predicate
        )
    return build_chain(
        raw,
        Budget(),
        tool_latency_seconds=spec.tool_latency_seconds,
        chaos=spec.chaos,
        chaos_key=spec.chaos_key,
        retries=spec.retries,
        deadline_seconds=spec.deadline_seconds,
    )


def worker_label() -> str:
    """This worker process's shard label (``p<pid>``)."""
    return f"p{os.getpid()}"


#: Per-process cache of rebuilt predicate chains, keyed by the spec.
#: One pickle + oracle rebuild amortizes over every probe of a run.
_PREDICATES: Dict[ProbeTaskSpec, Predicate] = {}


def _worker_predicate(spec: ProbeTaskSpec) -> Predicate:
    predicate = _PREDICATES.get(spec)
    if predicate is None:
        predicate = build_worker_predicate(spec)
        _PREDICATES[spec] = predicate
    return predicate


def _evaluate_probe(
    task: ProbeTask,
    sub_input: FrozenSet[VarName],
    ctx_payload: Optional[Dict[str, Any]] = None,
) -> ProbeResult:
    """One physical probe, on a pool thread or in a worker process.

    Runs under a *detached* metrics registry, so the returned counters
    are exactly this probe's delta and reach the parent only through
    its fold.  (A bare ``scoped_metrics()`` child on a pool thread
    would forward to the global registry, which the fold then counts a
    second time.)  With a traced parent (``ctx_payload``), also
    handcrafts the ``predicate.call`` span payload the parent re-emits
    via ``Tracer.adopt`` — the probe never touches a live tracer, only
    the picklable context capsule.
    """
    in_process = task.chain is not None
    predicate = task.chain if in_process else _worker_predicate(task.spec)
    outcome: Optional[bool] = None
    error: Optional[BaseException] = None
    with scoped_metrics(MetricsRegistry()) as registry:
        started = time.time()
        start = time.perf_counter()
        try:
            outcome = predicate(sub_input)
        except BaseException as exc:  # noqa: BLE001 — relayed to the parent
            error = exc
        wall = time.perf_counter() - start
    events: List[Dict[str, Any]] = []
    if ctx_payload is not None:
        ctx = ctx_payload["ctx"]
        events.append(
            {
                "type": "span",
                "name": "predicate.call",
                "start": started - ctx_payload["epoch_unix"],
                "duration": wall,
                "vstart": ctx_payload["vt"],
                "vduration": 0.0,
                "parent_span_id": ctx["span_id"],
                "run_id": ctx["run_id"],
                "trace_id": ctx["trace_id"],
                "serial": ctx["serial"],
                "worker": ctx["worker"] if in_process else worker_label(),
                "attrs": {
                    "size": len(sub_input),
                    "outcome": outcome,
                    "backend": "thread" if in_process else "process",
                    "pid": os.getpid(),
                },
            }
        )
    return ProbeResult(
        outcome=outcome,
        wall_seconds=wall,
        error=error,
        metrics={
            name: value
            for name, value in registry.counter_values().items()
            if value
        },
        events=events,
    )


def spawn_pool(max_workers: int):
    """A ``ProcessPoolExecutor`` whose workers start by ``spawn``.

    Every process pool in the package is built here: probe pools
    (``--probe-backend process``), corpus workers (``bench --jobs N``)
    and the service's instance pool.  ``spawn`` is portable, is safe
    in a parent that runs threads, and forces the pickling contract to
    hold — a worker only ever sees what its task spec carries.
    Workers start lazily, on the first ``submit``.
    """
    # Imported here, not at module level: the process machinery adds
    # ~2 MB resident to every importer, and most never spawn.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn"),
    )

"""Process-parallel probe evaluation: beat the GIL on physical probes.

BENCH_5's blunt lesson: speculative probing wins 2.38x in *simulated*
seconds but loses wall-clock (0.85x), because probe materialization +
decompile + javac are pure-Python CPU work — a ``ThreadPoolExecutor``
overlaps none of it under the GIL.  The paper's premise is the
opposite: the predicate is an external ~33-second tool invocation, and
k of them genuinely run at once.  This module makes that real by
moving *fresh* physical probes onto a ``ProcessPoolExecutor``.

The contract (DESIGN.md §10) has three parts:

- **Task pickling.**  A :class:`ProbeTaskSpec` is a frozen, picklable
  recipe for rebuilding the predicate chain inside a worker process:
  the serialized application bytes (``serialize_application`` round-
  trips exactly), the decompiler *name* (resolved via
  ``get_decompiler``), the granularity, and the resilience knobs
  (seeded :class:`~repro.resilience.faults.FaultPlan`, retries,
  deadline, tool latency).  Workers cache the rebuilt chain per spec,
  so one pickle+rebuild amortizes over every probe of a run.  Probe
  *inputs* are frozensets of the frozen item dataclasses from
  :mod:`repro.bytecode.items` — picklable by construction — plus the
  picklable :class:`~repro.observability.context.TraceContext` payload
  for the telemetry hop.
- **Worker results.**  :func:`_evaluate_probe` returns a
  :class:`ProbeResult` — verdict (or the raised exception, relayed
  rather than thrown so its metrics survive), wall latency, the
  worker-side metrics *delta* (recorded under a fresh
  ``scoped_metrics`` child), and handcrafted ``predicate.call`` span
  payloads the parent re-emits via
  :meth:`~repro.observability.spans.Tracer.adopt`.
- **Serial commit.**  The parent —
  :meth:`~repro.reduction.predicate.InstrumentedPredicate
  .evaluate_batch` — commits results in serial index order exactly as
  the thread backend does: cache writes, store write-back (the
  persistent cache tier of :mod:`repro.parallel.store` stays entirely
  parent-side — workers never open the store, so its single-``os.write``
  shard-append discipline holds per parent process), virtual
  clock, and the probe provenance ledger all evolve as if the round
  had been issued sequentially, so results stay byte-identical across
  ``--probe-backend {thread,process}`` and sequential runs.

Chaos parity: a worker rebuilds its *own* seeded fault injector (same
derived seed, fresh call counter), so the per-call fault schedule is
not the parent's — but the supported chaos modes are truth-preserving
(transient errors + retries recover the true outcome), so the
*results* remain byte-identical; the differential suite in
``tests/parallel/test_procpool.py`` pins this down.

:class:`ToolLatencyPredicate` models the paper's external tool as a
real per-invocation sleep (``--tool-latency-ms``): unlike the
simulated virtual clock, a sleep is *observable* wall time that a
process (or thread) pool genuinely overlaps — it is what
``benchmarks/bench_procpool.py`` measures its wall speedup against.
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

from repro.resilience.faults import FaultPlan, derive_seed

__all__ = [
    "ProbeTaskSpec",
    "ProbeResult",
    "ProcessProbePool",
    "ToolLatencyPredicate",
    "build_worker_predicate",
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


@dataclass(frozen=True)
class ProbeTaskSpec:
    """A picklable recipe for rebuilding a predicate chain in a worker.

    ``kind == "oracle"`` rebuilds a
    :class:`~repro.decompiler.oracle.DecompilerOracle` from
    ``app_bytes`` (the exact ``serialize_application`` round-trip) and
    the decompiler *name*; ``kind == "callable"`` ships a small
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


@dataclass
class ProbeResult:
    """What one worker probe sends back for the serial commit.

    ``error`` relays a raised exception instead of letting it escape
    through the future, so the attempt's metrics delta (retries,
    timeouts) still reaches the parent; the parent re-raises it at the
    probe's serial commit position, exactly like the thread backend.
    """

    outcome: Optional[bool]
    wall_seconds: float
    error: Optional[BaseException] = None
    metrics: Dict[str, int] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)


def build_worker_predicate(spec: ProbeTaskSpec) -> Predicate:
    """Rebuild the parent's predicate chain (below the cache) from a spec.

    Mirrors ``repro.harness.experiments._run_instance_inner`` layer for
    layer: raw oracle → tool latency → chaos injector →
    :class:`~repro.resilience.ResilientPredicate` (fresh unlimited
    budget — a *limiting* budget never reaches this backend, because
    ``speculation_allowed`` serializes it).  The
    :class:`~repro.reduction.predicate.InstrumentedPredicate` layer
    stays parent-side: memoization, the store, and the clocks are
    committed serially there.
    """
    if spec.kind == "callable":
        raw = spec.predicate
    else:
        from repro.bytecode.serializer import deserialize_application
        from repro.decompiler.oracle import DecompilerOracle

        app = deserialize_application(spec.app_bytes)
        oracle = DecompilerOracle(app, spec.decompiler)
        raw = (
            oracle.item_predicate
            if spec.granularity == "item"
            else oracle.class_predicate
        )
    wrapped: Predicate = raw
    if spec.tool_latency_seconds > 0:
        wrapped = ToolLatencyPredicate(wrapped, spec.tool_latency_seconds)
    if spec.chaos is not None:
        wrapped = spec.chaos.apply(wrapped, spec.chaos_key)
    if (
        spec.chaos is not None
        or spec.retries > 0
        or spec.deadline_seconds is not None
    ):
        from repro.resilience import Budget, ResilientPredicate

        wrapped = ResilientPredicate(
            wrapped,
            budget=Budget(),
            retries=spec.retries,
            deadline_seconds=spec.deadline_seconds,
            seed=derive_seed(0, spec.chaos_key),
        )
    return wrapped


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
    spec: ProbeTaskSpec,
    sub_input: FrozenSet[VarName],
    ctx_payload: Optional[Dict[str, Any]] = None,
) -> ProbeResult:
    """One physical probe, evaluated inside a pool worker process.

    Runs under a fresh ``scoped_metrics`` child so the returned metrics
    dict is exactly this probe's delta; with a traced parent
    (``ctx_payload``), also handcrafts the ``predicate.call`` span
    payload the parent re-emits via ``Tracer.adopt`` — the worker has
    no live tracer of its own, only the picklable context capsule.
    """
    from repro.observability import scoped_metrics

    predicate = _worker_predicate(spec)
    outcome: Optional[bool] = None
    error: Optional[BaseException] = None
    with scoped_metrics() as registry:
        start = time.perf_counter()
        try:
            outcome = predicate(sub_input)
        except BaseException as exc:  # noqa: BLE001 — relayed to the parent
            error = exc
        wall = time.perf_counter() - start
    events: List[Dict[str, Any]] = []
    if ctx_payload is not None:
        ctx = ctx_payload.get("ctx") or {}
        events.append(
            {
                "type": "span",
                "name": "predicate.call",
                "start": time.time() - ctx_payload.get("epoch_unix", 0.0),
                "duration": wall,
                "vstart": ctx_payload.get("vt", 0.0),
                "vduration": 0.0,
                "parent_span_id": ctx.get("span_id"),
                "run_id": ctx.get("run_id", ""),
                "trace_id": ctx.get("trace_id", ""),
                "serial": ctx.get("serial", -1),
                "worker": worker_label(),
                "attrs": {
                    "size": len(sub_input),
                    "outcome": outcome,
                    "backend": "process",
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


class ProcessProbePool:
    """A spawn-safe process pool for physical probe evaluation.

    Duck-typed by ``InstrumentedPredicate.evaluate_batch`` via
    :meth:`submit_probe` (a plain ``ThreadPoolExecutor`` exposes
    ``submit`` instead — that is how the batch picks its backend).
    ``spawn`` is the default start method: it is the only one that is
    both fork-safe under threads (a thread-backend instance pool shares
    one probe pool across its threads) and portable, and it forces the pickling
    contract to hold — a worker only ever sees what the spec carries.
    """

    def __init__(self, max_workers: int, mp_context: str = "spawn") -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context(mp_context),
        )

    def submit_probe(
        self,
        spec: ProbeTaskSpec,
        sub_input: FrozenSet[VarName],
        ctx_payload: Optional[Dict[str, Any]] = None,
    ):
        """Schedule one probe; returns a future of :class:`ProbeResult`."""
        return self._pool.submit(_evaluate_probe, spec, sub_input, ctx_payload)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ProcessProbePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

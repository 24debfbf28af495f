"""Running reduction strategies over corpus instances.

One *instance* is a (benchmark application, buggy decompiler) pair; one
*outcome* is a strategy's result on an instance: final sizes, predicate
invocations, wall-clock, and the reduction-over-time trace.

The paper's time axis is dominated by the decompile+compile cycle
("each taking 33 seconds on average"); our simulated decompilers run in
microseconds, so outcomes also carry a *simulated* clock that charges a
configurable cost per fresh predicate invocation — that clock is what
the Figure 8 reproductions plot.  The simulated clock is purely virtual
(``cost × fresh calls``), so outcomes are deterministic across hosts
and across serial/parallel execution; only ``real_seconds`` varies.

This module runs one strategy on one instance (:func:`run_instance`).
A whole corpus runs through one executor,
:func:`repro.parallel.scheduler.run_scheduled_corpus_experiment`, which
this module re-exports as ``run_corpus_experiment``: ``jobs=1`` runs
inline, ``jobs=N`` fans whole instances out to worker processes, and
outcomes commit in serial order either way.  Passing a predicate store
(:func:`repro.parallel.open_store`) makes predicate outcomes persist
across runs (a warm store re-runs an instance with zero fresh
predicate calls).  ``ExperimentConfig.tenant`` namespaces the store so
many tenants can share one warm cache safely.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bytecode.classfile import Application
from repro.bytecode.constraints import class_dependency_graph
from repro.bytecode.metrics import application_size_bytes
from repro.bytecode.reducer import reduce_application
from repro.bytecode.serializer import (
    ApplicationSerializer,
    serialize_application,
)
from repro.harness.problems import (
    ORACLE_SOURCES,
    code_digest,
    compiled_problem,
    tenant_prefix,
)
from repro.observability import get_metrics, get_tracer, profiled_phase
from repro.reduction.binary import binary_reduction
from repro.reduction.gbr import generalized_binary_reduction
from repro.reduction.lossy import LossyVariant, lossy_reduce
from repro.reduction.predicate import InstrumentedPredicate
from repro.reduction.problem import ReductionProblem, Stopwatch
from repro.resilience import Budget, FaultPlan
from repro.workloads.corpus import Benchmark, BuggyInstance

__all__ = [
    "ExperimentConfig",
    "InstanceOutcome",
    "config_from_payload",
    "error_outcome",
    "oracle_fingerprint",
    "outcome_signature",
    "PLACEMENT_METRICS",
    "RESIDENCY_METRICS",
    "probe_cap_for",
    "probe_pool",
    "progress_line",
    "run_instance",
    "run_corpus_experiment",
    "STRATEGY_NAMES",
]

#: Strategies the harness knows how to run on an instance.
STRATEGY_NAMES = ("our-reducer", "jreduce", "lossy-first", "lossy-last")

#: Config fields no CLI flag sets, and the flags not named after their
#: field (any other field ``x_y`` is set by ``--x-y``).
_FLAGLESS_FIELDS = ("strategies", "simulated_seconds_per_run")
_RENAMED_FLAGS = {
    "tool_latency_seconds": "--tool-latency-ms",
    "tenant": "--store-tenant",
}

#: The JSON type of each scalar config field (``float`` also admits
#: integers); fields that default to None also admit None.
_FIELD_TYPES = {
    "simulated_seconds_per_run": float,
    "budget_calls": int,
    "budget_seconds": float,
    "retries": int,
    "deadline_seconds": float,
    "keep_going": bool,
    "speculate": int,
    "probe_backend": str,
    "tool_latency_seconds": float,
    "profile_phases": bool,
    "tenant": str,
    "worker_budget": int,
}


def _field_label(name: str) -> str:
    """A field's name plus its CLI flag, so a refused value names both
    the field a service job sent and the flag a user typed."""
    if name in _FLAGLESS_FIELDS:
        return name
    flag = _RENAMED_FLAGS.get(name, "--" + name.replace("_", "-"))
    return f"{name} ({flag})"


def _has_type(value: Any, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass
class ExperimentConfig:
    """Knobs shared by all strategy runs."""

    strategies: Tuple[str, ...] = STRATEGY_NAMES
    #: Simulated seconds charged per fresh predicate invocation (the
    #: paper's decompile+compile averages 33 s).
    simulated_seconds_per_run: float = 33.0
    #: Per-run budget: max fresh predicate attempts (None: unlimited).
    #: Exhaustion yields an anytime outcome with ``status == "partial"``.
    budget_calls: Optional[int] = None
    #: Per-run budget: max simulated seconds, charged
    #: ``simulated_seconds_per_run`` per attempt (None: unlimited).
    budget_seconds: Optional[float] = None
    #: Transient-failure retries per predicate attempt slot.
    retries: int = 0
    #: Per-attempt wall-clock deadline; overruns raise
    #: :class:`~repro.resilience.PredicateTimeout` and count as
    #: transient failures (None: no deadline).
    deadline_seconds: Optional[float] = None
    #: Record a crashed instance as an error-marked outcome and keep
    #: running the rest of the corpus, instead of aborting the bench.
    keep_going: bool = False
    #: Seeded fault injection (the chaos bench mode); None runs clean.
    chaos: Optional[FaultPlan] = None
    #: Probes evaluated concurrently per GBR prefix-search round (see
    #: :mod:`repro.parallel.speculate`); 1 is the sequential binary
    #: search.  Results are byte-identical either way — runs with a
    #: limiting budget silently serialize to keep their anytime partial
    #: results deterministic.
    speculate: int = 1
    #: Where speculative probes physically run: ``"thread"`` (the GIL-
    #: bound pool — overlaps external tool latency only) or
    #: ``"process"`` (a :func:`~repro.parallel.procpool.spawn_pool`
    #: whose workers rebuild the predicate chain from a picklable task
    #: spec — the only backend that overlaps the pure-Python probe work
    #: itself).
    #: Results are byte-identical across backends.
    probe_backend: str = "thread"
    #: Real seconds each fresh predicate attempt sleeps, modelling the
    #: paper's external decompile+compile tool (whose ~33 s the
    #: simulated clock only *charges*).  Unlike the virtual cost, the
    #: sleep is observable wall time that concurrent probes genuinely
    #: overlap, so it is what the probe backends' wall-clock speedups
    #: are measured against.  0 (the default) sleeps nothing.
    tool_latency_seconds: float = 0.0
    #: Opt-in per-phase cProfile capture: each instance's reduce phase
    #: emits a ``profile`` event (top hotspots) into the trace.  Far
    #: more expensive than tracing — never on by default, and excluded
    #: from the telemetry-overhead gate (BENCH_6).
    profile_phases: bool = False
    #: Store-namespace tenant: runs with different tenants can share
    #: one warm predicate store without ever reading each other's
    #: cached outcomes (the tenant prefixes every oracle fingerprint).
    #: Empty (the default) keeps the historical fingerprint scheme.
    tenant: str = ""
    #: Total live workers (corpus workers + probe-pool workers) the run
    #: may hold at once; corpus runners size their probe pools down so
    #: the sum never exceeds it (see
    #: :class:`repro.parallel.scheduler.WorkerBudget`).  ``None`` (the
    #: default) keeps historical sizing: probe pools get exactly
    #: ``speculate`` workers, which deliberately oversubscribes CPUs to
    #: overlap external tool latency.  Set it on CPU-bound runs.
    worker_budget: Optional[int] = None

    def __post_init__(self) -> None:
        """Refuse a bad field before any work is done on it."""

        def refuse(name: str, why: str) -> None:
            raise ValueError(
                f"{_field_label(name)} {why}, got {getattr(self, name)!r}"
            )

        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            optional = self.__dataclass_fields__[name].default
            if not ((value is None and optional is None)
                    or _has_type(value, kind)):
                refuse(name, f"must be {kind.__name__}")
        if (
            not isinstance(self.strategies, tuple)
            or not self.strategies
            or any(name not in STRATEGY_NAMES for name in self.strategies)
        ):
            refuse(
                "strategies",
                "must be a non-empty tuple of " + ", ".join(STRATEGY_NAMES),
            )
        if self.chaos is not None and not isinstance(self.chaos, FaultPlan):
            refuse("chaos", "must be a fault plan")
        if self.speculate < 1:
            refuse("speculate", "must be >= 1")
        if self.retries < 0:
            refuse("retries", "must be >= 0")
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            refuse("deadline_seconds", "must be > 0")
        if not self.tool_latency_seconds >= 0:
            refuse("tool_latency_seconds", "must be >= 0")
        if self.worker_budget is not None and self.worker_budget < 1:
            refuse("worker_budget", "must be >= 1")
        if self.probe_backend not in ("thread", "process"):
            refuse("probe_backend", "must be 'thread' or 'process'")
        for name, parameter in (
            ("budget_calls", "max_calls"),
            ("budget_seconds", "max_seconds"),
            ("simulated_seconds_per_run", "seconds_per_call"),
        ):
            try:
                Budget(**{parameter: getattr(self, name)})
            except ValueError as exc:
                raise ValueError(f"{_field_label(name)}: {exc}") from None

    def budget(self) -> Budget:
        """A fresh per-run :class:`~repro.resilience.Budget`."""
        return Budget(
            max_calls=self.budget_calls,
            max_seconds=self.budget_seconds,
            seconds_per_call=self.simulated_seconds_per_run,
        )


#: ExperimentConfig fields a service job payload may carry / override.
#: ``chaos`` travels as the FaultPlan's field dict; everything else is
#: a JSON scalar.  ``worker_budget`` stays server-side: pool sizing is
#: an operator concern, not a tenant knob.  A job's strategy and tenant
#: come from the job itself (:func:`repro.service.jobs.job_config`).
CONFIG_PAYLOAD_FIELDS = (
    "simulated_seconds_per_run",
    "budget_calls",
    "budget_seconds",
    "retries",
    "deadline_seconds",
    "keep_going",
    "chaos",
    "speculate",
    "probe_backend",
    "tool_latency_seconds",
    "profile_phases",
)


def config_from_payload(
    payload: Dict[str, Any],
    base: Optional["ExperimentConfig"] = None,
) -> "ExperimentConfig":
    """Rebuild an :class:`ExperimentConfig` from a job payload.

    ``base`` supplies every field the payload omits (the service's
    per-server defaults); unknown keys and bad values raise
    ``ValueError`` (the config validates itself), so a typoed tenant
    knob fails the submission instead of silently running with
    defaults.
    """
    unknown = sorted(set(payload) - set(CONFIG_PAYLOAD_FIELDS))
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(unknown)}")
    updates = dict(payload)
    chaos = updates.get("chaos")
    if chaos is not None:
        try:
            updates["chaos"] = FaultPlan(**chaos)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{_field_label('chaos')}: {exc}") from None
    base = base if base is not None else ExperimentConfig()
    return dataclasses.replace(base, **updates)


@dataclass
class InstanceOutcome:
    """One strategy's result on one instance."""

    benchmark_id: str
    decompiler: str
    strategy: str
    total_bytes: int
    total_classes: int
    final_bytes: int
    final_classes: int
    predicate_calls: int
    real_seconds: float
    simulated_seconds: float
    #: (simulated seconds, best bytes so far) steps.
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Telemetry for this run (solver stats, cache hit rates, probe
    #: counts) — the strategy's ``ReductionResult.extras['metrics']``.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: ``"reduction"`` (the paper's decompiler-bug predicate) or
    #: ``"debloat"`` (coverage-based debloating) — report row-groups
    #: key on it.
    scenario: str = "reduction"
    #: ``"complete"`` | ``"partial"`` (budget exhausted; anytime
    #: best-so-far result) | ``"error"`` (the run crashed and
    #: ``keep_going`` recorded it instead of aborting the bench).
    status: str = "complete"
    #: Human-readable failure, set only when ``status == "error"``.
    error: Optional[str] = None

    @property
    def relative_bytes(self) -> float:
        return self.final_bytes / self.total_bytes if self.total_bytes else 1.0

    @property
    def relative_classes(self) -> float:
        return (
            self.final_classes / self.total_classes
            if self.total_classes
            else 1.0
        )


def oracle_fingerprint(
    app: Application,
    decompiler: str,
    granularity: str,
    tenant: str = "",
    app_digest: Optional[str] = None,
) -> str:
    """A stable predicate-store namespace (see :mod:`repro.parallel.store`).

    Hashes the serialized application bytes (``app_digest`` is their
    sha256 hex, when the caller has it) together with a digest of the
    oracle's own code (:data:`~repro.harness.problems.ORACLE_SOURCES`),
    plus the decompiler name and predicate granularity (``"item"`` or
    ``"class"``), so two oracles share cached outcomes exactly when
    they are the same pure function.  Editing the simulated decompilers
    or javac moves every verdict to a new namespace: a store written
    before the edit misses after it.

    ``tenant`` prefixes the namespace: many tenants' corpus runs can
    share one warm sharded store without their entries ever mixing.
    """
    if app_digest is None:
        app_digest = hashlib.sha256(serialize_application(app)).hexdigest()
    digest = hashlib.sha256(
        f"{code_digest(ORACLE_SOURCES)}:{app_digest}".encode("ascii")
    ).hexdigest()
    return f"{tenant_prefix(tenant)}{granularity}:{decompiler}:{digest}"


def run_instance(
    benchmark: Benchmark,
    instance: BuggyInstance,
    strategy: str,
    config: Optional[ExperimentConfig] = None,
    store=None,
    probe_executor=None,
) -> InstanceOutcome:
    """Run one strategy on one instance.

    ``store`` (from :func:`repro.parallel.open_store`) makes
    predicate outcomes persist: a repeat run of the same instance
    against a warm store reports ``predicate_calls == 0``.

    ``probe_executor`` is the worker pool for speculative probes when
    ``config.speculate > 1`` (corpus runs share one across instances);
    left ``None``, a private pool is created and torn down per run.

    Resilience: ``config.chaos`` wraps the raw oracle in a seeded fault
    injector; budgets/retries/deadlines wrap it in a
    :class:`~repro.resilience.ResilientPredicate` (each run gets a
    fresh per-run :class:`~repro.resilience.Budget`).  When
    ``config.keep_going`` is set, any exception escaping the strategy —
    an unrecoverable oracle crash, retry exhaustion, a broken encoding
    — is recorded as an error-marked outcome instead of propagating.
    """
    config = config or ExperimentConfig()
    watch = Stopwatch()
    local_pool = None
    if config.speculate > 1 and probe_executor is None:
        local_pool = probe_pool(config)
        probe_executor = local_pool
    try:
        return _run_instance_inner(benchmark, instance, strategy, config,
                                   store, watch, probe_executor)
    except Exception as exc:  # noqa: BLE001 — degraded, not swallowed
        if not config.keep_going:
            raise
        return error_outcome(
            benchmark, instance, strategy, exc, real_seconds=watch.elapsed()
        )
    finally:
        if local_pool is not None:
            local_pool.shutdown(wait=True)


def probe_pool(config: ExperimentConfig, max_workers: Optional[int] = None):
    """The worker pool for speculative probes, or None when sequential.

    Kept separate from the corpus executor's instance pool
    (:mod:`repro.parallel.scheduler`) — an instance worker blocking on
    probe futures scheduled into its *own* pool could deadlock.

    ``max_workers`` caps the pool's *physical* size (the worker-budget
    hook; see :class:`repro.parallel.scheduler.WorkerBudget`) without
    touching ``config.speculate`` — the speculation width K governs
    batch semantics and virtual-clock accounting, so results stay
    byte-identical however small the pool is squeezed.
    """
    if config.speculate <= 1:
        return None
    workers = config.speculate
    if max_workers is not None:
        workers = max(1, min(workers, max_workers))
    if config.probe_backend == "process":
        from repro.parallel.procpool import spawn_pool

        return spawn_pool(workers)
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="jlreduce-probe"
    )


def probe_cap_for(
    config: Optional[ExperimentConfig], corpus_jobs: int
) -> Optional[int]:
    """The probe-pool size cap the worker budget imposes, or None.

    Each of the ``corpus_jobs`` workers owns a private probe pool, so
    the leftover budget divides across them.
    """
    if config is None or config.worker_budget is None:
        return None
    from repro.parallel.scheduler import WorkerBudget

    return WorkerBudget(config.worker_budget).probe_pool_cap(corpus_jobs)


def _maybe_profile(config: ExperimentConfig, tracer):
    """A cProfile capture of the reduce phase, when opted in."""
    if config.profile_phases:
        return profiled_phase("reduce", tracer=tracer)
    return nullcontext()


def _run_instance_inner(
    benchmark: Benchmark,
    instance: BuggyInstance,
    strategy: str,
    config: ExperimentConfig,
    store,
    watch: Stopwatch,
    probe_executor=None,
) -> InstanceOutcome:
    # Lazy: repro.parallel imports the scheduler, which imports this
    # module.
    from repro.parallel.procpool import (
        ProbeTaskSpec,
        build_chain,
        build_oracle,
    )

    tracer = get_tracer()
    app = benchmark.app
    scenario = getattr(instance, "scenario", "reduction")
    original_errors = instance.oracle.original_errors
    # Every probe of this run goes to an oracle the run owns, built from
    # the instance's recipe: its memos start empty and die with the run,
    # and the instance's own long-lived oracle is never probed.
    oracle = build_oracle(
        app, scenario, instance.decompiler, benchmark.benchmark_id,
        original_errors,
    )
    # The one serialization of the full app: its size, the store keys'
    # app digest, and the process probe pool's task spec.
    app_bytes = serialize_application(app)
    app_digest = hashlib.sha256(app_bytes).hexdigest()
    total_classes = len(app.classes)
    # Sizes the timeline's kept sets and the final solution.
    serializer = ApplicationSerializer(app)

    def _fingerprint(granularity: str) -> Optional[str]:
        if store is None:
            return None
        return oracle_fingerprint(
            app, instance.decompiler, granularity, tenant=config.tenant,
            app_digest=app_digest,
        )

    def _knobs(granularity: str) -> Dict[str, Any]:
        """The chain knobs, shared by the parent chain and its spec."""
        return dict(
            tool_latency_seconds=config.tool_latency_seconds,
            chaos=config.chaos,
            chaos_key=(
                f"{benchmark.benchmark_id}:{instance.decompiler}:"
                f"{strategy}:{granularity}"
            ),
            retries=config.retries,
            deadline_seconds=config.deadline_seconds,
        )

    def _chain(raw, granularity: str):
        """Layer tool latency, chaos, and fault handling under the cache."""
        return build_chain(raw, config.budget(), **_knobs(granularity))

    def _task_spec(granularity: str):
        """The picklable recipe a process probe pool rebuilds the chain
        from; None unless probes run on processes (serializing the app
        is not free).  Budgets stay parent-side: a limiting budget
        serializes speculation before any task reaches the pool.
        """
        if config.probe_backend != "process" or config.speculate <= 1:
            return None
        return ProbeTaskSpec(
            app_bytes=app_bytes,
            decompiler=instance.decompiler,
            granularity=granularity,
            scenario=scenario,
            benchmark_id=benchmark.benchmark_id,
            original_errors=original_errors,
            **_knobs(granularity),
        )

    # The run's virtual clock, installed on the tracer before the
    # instrumented predicate exists (it is built inside instance.setup):
    # the cell indirection lets every span of this instance — including
    # instance.run itself — carry ``vstart``/``vduration`` in simulated
    # seconds next to its wall clock.
    instrumented_cell: List[InstrumentedPredicate] = []

    def _virtual_now() -> float:
        return (
            instrumented_cell[0].virtual_now() if instrumented_cell else 0.0
        )

    with tracer.clock(_virtual_now), tracer.span(
        "instance.run",
        benchmark=benchmark.benchmark_id,
        decompiler=instance.decompiler,
        strategy=strategy,
    ):
        if strategy == "jreduce":
            with tracer.span("instance.setup", strategy=strategy):
                instrumented = InstrumentedPredicate(
                    _chain(oracle.class_predicate, "class"),
                    cost_per_call=config.simulated_seconds_per_run,
                    size_of=serializer.size_of_classes,
                    store=store,
                    fingerprint=_fingerprint("class"),
                    task_spec=_task_spec("class"),
                )
                instrumented_cell.append(instrumented)
                graph = class_dependency_graph(app)
                required = oracle.required_classes
            with tracer.span("instance.reduce", strategy=strategy), (
                _maybe_profile(config, tracer)
            ):
                result = binary_reduction(graph, instrumented, required)
            with tracer.span("instance.measure", strategy=strategy):
                kept = set(result.solution)
                final_bytes = serializer.size_of_classes(kept)
                final_classes = sum(
                    decl.name in kept for decl in app.classes
                )
        else:
            with tracer.span("instance.setup", strategy=strategy):
                # The paper's decompiler-bug problem is kept compiled in
                # a store (repro.harness.problems); the debloat problem
                # pins its coverage set and is always built.
                order = None
                if store is not None and scenario == "reduction":
                    problem, order = compiled_problem(
                        app, app_digest, oracle, store, config.tenant
                    )
                else:
                    problem = oracle.build_problem()
                instrumented = InstrumentedPredicate(
                    _chain(problem.predicate, "item"),
                    cost_per_call=config.simulated_seconds_per_run,
                    size_of=serializer.size_of_items,
                    store=store,
                    fingerprint=_fingerprint("item"),
                    task_spec=_task_spec("item"),
                )
                instrumented_cell.append(instrumented)
                problem = ReductionProblem(
                    variables=problem.variables,
                    predicate=instrumented,
                    constraint=problem.constraint,
                    description=problem.description,
                )
            with tracer.span("instance.reduce", strategy=strategy), (
                _maybe_profile(config, tracer)
            ):
                if strategy == "our-reducer":
                    result = generalized_binary_reduction(
                        problem,
                        order=order,
                        speculate=config.speculate,
                        probe_executor=probe_executor,
                    )
                elif strategy == "lossy-first":
                    result = lossy_reduce(problem, LossyVariant.FIRST)
                elif strategy == "lossy-last":
                    result = lossy_reduce(problem, LossyVariant.LAST)
                else:
                    raise ValueError(f"unknown strategy {strategy!r}")
            with tracer.span("instance.measure", strategy=strategy):
                # The reduced application is the run's output (perfbench
                # certifies the solution this call receives); its size
                # comes from the serializer's parts, not a second
                # serialization.
                reduced = reduce_application(app, result.solution)
                final_bytes = serializer.size_of_items(result.solution)
                final_classes = len(reduced.classes)

    return InstanceOutcome(
        benchmark_id=benchmark.benchmark_id,
        decompiler=instance.decompiler,
        strategy=strategy,
        scenario=scenario,
        total_bytes=len(app_bytes),
        total_classes=total_classes,
        final_bytes=final_bytes,
        final_classes=final_classes,
        predicate_calls=instrumented.calls,
        real_seconds=watch.elapsed(),
        simulated_seconds=instrumented.virtual_now(),
        timeline=list(instrumented.timeline),
        metrics=dict(result.extras.get("metrics", {})),
        status=result.status,
    )


def error_outcome(
    benchmark: Benchmark,
    instance: BuggyInstance,
    strategy: str,
    error: BaseException,
    real_seconds: float = 0.0,
) -> InstanceOutcome:
    """An error-marked outcome for a crashed instance run.

    Graceful degradation: the instance keeps its place in the corpus
    report (sizes pinned at "no reduction"), the failure is legible in
    ``outcome.error``, and the ``runner.failures`` counter records it
    for trace summaries.
    """
    get_metrics().counter("runner.failures").inc()
    app = benchmark.app
    total_bytes = application_size_bytes(app)
    return InstanceOutcome(
        benchmark_id=benchmark.benchmark_id,
        decompiler=instance.decompiler,
        strategy=strategy,
        scenario=getattr(instance, "scenario", "reduction"),
        total_bytes=total_bytes,
        total_classes=len(app.classes),
        final_bytes=total_bytes,
        final_classes=len(app.classes),
        predicate_calls=0,
        real_seconds=real_seconds,
        simulated_seconds=0.0,
        status="error",
        error=f"{type(error).__name__}: {error}",
    )


#: Per-run metric names that report which worker process did the work:
#: at ``--speculate N --probe-backend process`` each probe materializes
#: and decompiles on whichever worker's cached oracle picks it up, so
#: the memos' hit and miss counts vary from run to run while every
#: outcome agrees.
PLACEMENT_METRICS = (
    "reducer.memo_hits",
    "reducer.memo_misses",
    "decompile.memo_hits",
    "decompile.memo_misses",
)

#: Per-run metric names that report cache-tier *residency* rather than
#: semantics: which process's store handle had a shard loaded, how many
#: foreign lines its scan walked, what its LRU evicted.  They are
#: faithful telemetry but inherently placement-dependent — two runs with
#: identical probe traffic report different values depending on which
#: worker's handle served them — so outcome comparisons exclude them.
RESIDENCY_METRICS = (
    "store.shard_loads",
    "store.lines_scanned",
    "store.evictions",
    "store.compactions",
)


def outcome_signature(outcome: InstanceOutcome) -> Dict[str, Any]:
    """The deterministic identity of an outcome, for differential tests.

    Everything except wall time (``real_seconds``) and the
    placement-dependent counters (:data:`RESIDENCY_METRICS`,
    :data:`PLACEMENT_METRICS`) in the per-run metrics extras.  Two runs of the same corpus agree on
    this signature across sequential / thread / process backends, any
    job count, and any dispatch order — including warm-store and chaos
    lanes.
    """
    record = asdict(outcome)
    record.pop("real_seconds", None)
    metrics = record.get("metrics")
    if metrics:
        record["metrics"] = {
            name: value
            for name, value in metrics.items()
            if name not in RESIDENCY_METRICS
            and name not in PLACEMENT_METRICS
        }
    return record


def progress_line(outcome: InstanceOutcome) -> str:
    """One human-readable status line per finished instance."""
    prefix = (
        f"{outcome.benchmark_id}/{outcome.decompiler}/{outcome.strategy}"
    )
    if outcome.status == "error":
        return f"{prefix}: ERROR {outcome.error}"
    suffix = " (partial: budget exhausted)" if outcome.status == "partial" else ""
    return (
        f"{prefix}: {outcome.relative_bytes:.1%} bytes in "
        f"{outcome.predicate_calls} runs{suffix}"
    )


def __getattr__(name: str):
    # ``run_corpus_experiment`` is the scheduler's entry point under its
    # historical name.  Resolved lazily: the scheduler imports this
    # module, so an eager import here would be circular.
    if name == "run_corpus_experiment":
        from repro.parallel.scheduler import run_scheduled_corpus_experiment

        return run_scheduled_corpus_experiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

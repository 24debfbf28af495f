"""The corpus executor: whole reduction instances across cores.

:func:`run_scheduled_corpus_experiment` is the only way a corpus runs
(``repro.harness.run_corpus_experiment`` is the same function, and
``jlreduce bench --jobs N`` calls it).  ``jobs=1`` runs inline in the
calling process; any other count fans **whole reduction instances** out
to spawn-safe worker processes, the way the paper's evaluation actually
ran: one machine, many benchmarks, all cores busy.

The contract extends PR 7's recipe one level up (DESIGN.md §12):

- **Task pickling.**  An :class:`InstanceTaskSpec` is a picklable
  recipe for one (benchmark, instance) pair: the application (inline
  ``serialize_application`` bytes, or a path into a persisted corpus so
  a 1000-app parent never holds the blobs), the scenario and decompiler
  *names*, the full :class:`~repro.harness.experiments.ExperimentConfig`,
  the store recipe (:class:`StoreSpec` — workers open their own handle;
  PR 8's O_APPEND + manifest discipline makes concurrent appends safe),
  and the serial base of the instance's strategy runs.
- **Worker results.**  A worker runs every configured strategy of its
  instance *in serial order* under a fresh ``scoped_metrics`` child and
  a real per-process tracer, and ships back, per strategy: the
  :class:`~repro.harness.experiments.InstanceOutcome` (or the relayed
  exception), the full metrics-registry snapshot, and the span/ledger
  events with their worker-tracer ids intact.
- **Serial-order commit.**  The parent buffers results and commits the
  contiguous prefix in task order: outcomes append (or stream to
  ``on_outcome`` — no O(corpus) memory), relayed errors re-raise (or
  degrade to error outcomes under ``keep_going``), metrics snapshots
  fold into the live registry
  (:meth:`~repro.observability.metrics.MetricsRegistry.merge_snapshot`),
  and events re-base onto the parent clock via
  :meth:`~repro.observability.spans.Tracer.ingest` — so results, the
  virtual clock, telemetry totals, and the probe ledger match a
  ``jobs=1`` run.  :func:`fold_result` is that fold; the service
  (:mod:`repro.service.server`) commits its jobs through it too.

Strategies of one instance run sequentially inside one worker, so a
shared **cold** store warms in exactly the ``jobs=1`` order (strategies
of an instance are the only runs that share a fingerprint; distinct
benchmarks never collide).

**Adaptive longest-job-first dispatch.**  Tasks are predicted from item
counts (persisted-corpus manifests carry them) or prior-run telemetry
(:func:`load_cost_hints` over a results JSONL), largest first, and the
per-scenario cost scale is re-estimated (EWMA) as observations arrive —
the classic LPT heuristic that keeps a straggler from being scheduled
last onto an otherwise-drained pool.  Dispatch order does not affect
results (instances are independent; seeds key on ids, not submission
order), only the makespan.

**Shared worker budget.**  :class:`WorkerBudget` caps corpus workers ×
per-worker probe-pool workers at a configured total
(``ExperimentConfig.worker_budget``), closing PR 7's oversubscription
hole where ``--jobs N --probe-backend process --speculate K`` spawned
``N×K`` probe processes with no global cap.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.harness.experiments import (
    ExperimentConfig,
    InstanceOutcome,
    error_outcome,
    probe_cap_for,
    probe_pool,
    progress_line,
    run_instance,
)
from repro.observability import get_metrics, get_tracer
from repro.observability.context import TraceContext
from repro.parallel.procpool import build_oracle, spawn_pool, worker_label
from repro.parallel.store import DEFAULT_SHARDS
from repro.workloads.corpus import Benchmark, BuggyInstance, load_manifest

__all__ = [
    "WorkerBudget",
    "StoreSpec",
    "InstanceTaskSpec",
    "StrategyResult",
    "InstanceTaskResult",
    "fold_result",
    "load_cost_hints",
    "resolve_jobs",
    "run_instance_task",
    "run_scheduled_corpus_experiment",
]


# ----------------------------------------------------------------------
# Worker budget
# ----------------------------------------------------------------------


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class WorkerBudget:
    """A global cap on live workers (corpus + probe pools combined).

    ``probe_pool_cap`` answers "how many probe workers may each pool
    hold so the sum stays under budget": each of the ``corpus_jobs``
    workers owns a private pool, so the leftover divides across them.
    The cap never drops below one worker — a pool that cannot exist
    would change results, and the budget's job is sizing, not semantics.
    """

    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"worker budget must be >= 1, got {self.total}")

    @classmethod
    def detect(cls, total: Optional[int] = None) -> "WorkerBudget":
        """An explicit total, or one slot per CPU."""
        if total is not None and total > 0:
            return cls(total)
        return cls(os.cpu_count() or 1)

    def corpus_jobs(self, requested: int) -> int:
        """Clamp a requested corpus-worker count to the budget."""
        return max(1, min(requested, self.total))

    def probe_pool_cap(self, corpus_jobs: int) -> int:
        """Max workers per probe pool, given ``corpus_jobs`` are taken."""
        leftover = max(0, self.total - corpus_jobs)
        return max(1, leftover // max(1, corpus_jobs))


# ----------------------------------------------------------------------
# Task specs (what pickles into a worker)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreSpec:
    """A picklable recipe for opening the shared predicate store.

    Workers cannot inherit the parent's file descriptors across a spawn
    — they open their own handle from this recipe (cached per process).
    The parent opens the store first, so the shard layout/manifest
    exists before any worker races to it; after that, PR 8's
    single-``os.write`` O_APPEND append discipline makes concurrent
    multi-process appends safe.
    """

    path: str
    shards: int = DEFAULT_SHARDS
    max_entries: Optional[int] = None

    @classmethod
    def of(cls, store) -> "StoreSpec":
        """The recipe that reopens a live store handle in a worker."""
        return cls(
            path=store.path,
            shards=store.shards,
            max_entries=store.max_entries,
        )

    def open(self):
        from repro.parallel.store import open_store

        return open_store(
            self.path, shards=self.shards, max_entries=self.max_entries
        )


@dataclass(frozen=True)
class InstanceTaskSpec:
    """A picklable recipe for one whole-instance run (PR 7's
    :class:`~repro.parallel.procpool.ProbeTaskSpec`, one level up).

    Exactly one of ``app_bytes`` / ``app_path`` is set: inline bytes
    for in-memory corpora, a path into a persisted corpus directory for
    paper-scale runs (the parent then never materializes the app).
    ``serial_base`` is the serial index of the instance's *first*
    strategy run — strategy ``i`` commits at ``serial_base + i``,
    matching a ``jobs=1`` run's (benchmark, instance, strategy)
    enumeration exactly.
    """

    benchmark_id: str
    decompiler: str
    scenario: str
    strategies: Tuple[str, ...]
    serial_base: int
    app_seed: int
    config: ExperimentConfig
    app_bytes: Optional[bytes] = None
    app_path: Optional[str] = None
    store: Optional[StoreSpec] = None
    #: Physical probe-pool cap the worker budget allows each worker
    #: (None: historical sizing — ``config.speculate`` workers).
    probe_workers: Optional[int] = None
    #: The parent's ``TraceContext.to_dict()``, or None when untraced.
    ctx: Optional[Dict[str, Any]] = None
    #: The full application's error set when the parent's instance
    #: already holds it (in-memory corpora), so the worker's oracle
    #: skips its full-application decompile; None for manifest tasks.
    original_errors: Optional[FrozenSet[str]] = None


@dataclass
class StrategyResult:
    """One strategy's shipment home: outcome or relayed error, plus
    the metrics snapshot and traced events of the run."""

    strategy: str
    outcome: Optional[InstanceOutcome] = None
    error: Optional[BaseException] = None
    metrics: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class InstanceTaskResult:
    """Everything one worker sends back for serial-order commit."""

    serial_base: int
    worker: str
    #: The worker tracer's wall epoch (``time.time()`` at creation) —
    #: the parent re-bases event clocks with it.
    epoch_unix: float
    wall_seconds: float
    strategies: List[StrategyResult] = field(default_factory=list)
    #: Instance-level failure (app load, oracle build) that pre-empted
    #: every strategy.
    error: Optional[BaseException] = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process caches: one store handle per recipe, one probe pool per
#: sizing, amortized over every task the worker runs.  They live as
#: long as the worker process; its exit at pool shutdown closes them.
_WORKER_STORES: Dict[StoreSpec, Any] = {}
_WORKER_PROBE_POOLS: Dict[Tuple[int, str, Optional[int]], Any] = {}


def _worker_store(spec: Optional[StoreSpec]):
    if spec is None:
        return None
    store = _WORKER_STORES.get(spec)
    if store is None:
        store = spec.open()
        _WORKER_STORES[spec] = store
    return store


def _worker_probe_pool(config: ExperimentConfig, cap: Optional[int]):
    if config.speculate <= 1:
        return None
    key = (config.speculate, config.probe_backend, cap)
    pool = _WORKER_PROBE_POOLS.get(key)
    if pool is None:
        pool = probe_pool(config, max_workers=cap)
        _WORKER_PROBE_POOLS[key] = pool
    return pool


def _worker_tracer(run_id: str):
    """The worker's persistent enabled tracer (installed globally).

    One tracer per process, reused across tasks: its ``seq`` counter
    never resets (``clear()`` keeps it), so span ids
    ``"p<pid>:<seq>"`` stay unique for the process lifetime, across
    every instance it runs.
    """
    from repro.observability.spans import Tracer, set_tracer
    from repro.observability import get_tracer as _get

    tracer = _get()
    if not tracer.enabled:
        tracer = Tracer(enabled=True, run_id=run_id)
        set_tracer(tracer)
    return tracer


def _materialize(spec: InstanceTaskSpec) -> Tuple[Benchmark, BuggyInstance]:
    """Rebuild the (benchmark, instance) pair from the spec's recipe."""
    from repro.bytecode.serializer import deserialize_application

    if spec.app_bytes is not None:
        data = spec.app_bytes
    else:
        with open(spec.app_path, "rb") as fh:
            data = fh.read()
    app = deserialize_application(data)
    benchmark = Benchmark(
        benchmark_id=spec.benchmark_id, seed=spec.app_seed, app=app
    )
    instance = BuggyInstance(
        benchmark_id=spec.benchmark_id,
        decompiler=spec.decompiler,
        oracle=build_oracle(
            app, spec.scenario, spec.decompiler, spec.benchmark_id,
            spec.original_errors,
        ),
        scenario=spec.scenario,
    )
    return benchmark, instance


def run_instance_task(spec: InstanceTaskSpec) -> InstanceTaskResult:
    """One whole instance, evaluated inside a pool worker process.

    Strategies run in serial order; each under a fresh
    ``scoped_metrics`` child (the shipped snapshot is exactly that
    run's delta) and, when traced, an attached per-strategy task
    context, so spans/ledger events carry their serial commit slots.
    Exceptions are relayed, not raised — their metrics and the
    remaining strategies' fate are decided at the parent's serial
    commit (:func:`fold_result`).  The corpus scheduler and the service
    both submit it to a :func:`~repro.parallel.procpool.spawn_pool`.
    """
    from repro.observability import scoped_metrics

    start = time.perf_counter()
    label = worker_label()
    try:
        benchmark, instance = _materialize(spec)
        store = _worker_store(spec.store)
        probes = _worker_probe_pool(spec.config, spec.probe_workers)
    except BaseException as exc:  # noqa: BLE001 — relayed to the parent
        return InstanceTaskResult(
            serial_base=spec.serial_base,
            worker=label,
            epoch_unix=0.0,
            wall_seconds=time.perf_counter() - start,
            error=exc,
        )
    tracer = None
    epoch_unix = 0.0
    base_ctx = None
    if spec.ctx is not None:
        tracer = _worker_tracer(spec.ctx.get("run_id", ""))
        epoch_unix = tracer.epoch_unix
        base_ctx = TraceContext.from_dict(spec.ctx)
    results: List[StrategyResult] = []
    for i, strategy in enumerate(spec.strategies):
        outcome: Optional[InstanceOutcome] = None
        error: Optional[BaseException] = None
        with scoped_metrics() as registry:
            try:
                if base_ctx is not None:
                    task_ctx = base_ctx.task(
                        serial=spec.serial_base + i, worker=label
                    )
                    with tracer.attach(task_ctx):
                        outcome = run_instance(
                            benchmark, instance, strategy, spec.config,
                            store, probe_executor=probes,
                        )
                else:
                    outcome = run_instance(
                        benchmark, instance, strategy, spec.config,
                        store, probe_executor=probes,
                    )
            except BaseException as exc:  # noqa: BLE001 — relayed
                error = exc
        events: List[Dict[str, Any]] = []
        if tracer is not None:
            events = [event.to_dict() for event in tracer.events()]
            events.extend(tracer.raw_events())
            tracer.clear()
        results.append(
            StrategyResult(
                strategy=strategy,
                outcome=outcome,
                error=error,
                metrics=registry.snapshot(),
                events=events,
            )
        )
        if error is not None and not spec.config.keep_going:
            # The parent will raise at this serial slot; later
            # strategies of this instance would be discarded anyway.
            break
    return InstanceTaskResult(
        serial_base=spec.serial_base,
        worker=label,
        epoch_unix=epoch_unix,
        wall_seconds=time.perf_counter() - start,
        strategies=results,
    )


# ----------------------------------------------------------------------
# Parent side: planning
# ----------------------------------------------------------------------


@dataclass
class _Task:
    """Parent-side task record: spec ingredients + scheduling state."""

    index: int
    serial_base: int
    benchmark_id: str
    decompiler: str
    scenario: str
    app_seed: int
    units: float
    total_bytes: int
    total_classes: int
    app_path: Optional[str] = None
    #: Retained only for in-memory corpora (inline runs, error
    #: fallbacks); manifest-planned tasks leave these None so the
    #: parent never holds 1000 applications.
    benchmark: Optional[Benchmark] = None
    instance: Optional[BuggyInstance] = None


def _cost_units(num_classes: int, items: Optional[int]) -> float:
    """Predicted relative cost of an instance.

    Item count is the honest driver (probes, progression size); when
    unknown, classes^1.5 approximates it (items grow superlinearly in
    classes for our generator's shapes).
    """
    if items:
        return float(items)
    return float(num_classes) ** 1.5


def _plan_in_memory(
    benchmarks: Iterable[Benchmark], config: ExperimentConfig
) -> List[_Task]:
    tasks: List[_Task] = []
    serial = 0
    for benchmark in benchmarks:
        for instance in benchmark.instances:
            stats = benchmark.stats or {}
            tasks.append(
                _Task(
                    index=len(tasks),
                    serial_base=serial,
                    benchmark_id=benchmark.benchmark_id,
                    decompiler=instance.decompiler,
                    scenario=getattr(instance, "scenario", "reduction"),
                    app_seed=benchmark.seed,
                    units=_cost_units(
                        len(benchmark.app.classes), stats.get("items")
                    ),
                    # Only manifest fallbacks read the totals; in-memory
                    # errors rebuild them from the benchmark itself.
                    total_bytes=stats.get("bytes", 0),
                    total_classes=len(benchmark.app.classes),
                    app_path=benchmark.app_path,
                    benchmark=benchmark,
                    instance=instance,
                )
            )
            serial += len(config.strategies)
    return tasks


def _plan_from_manifest(
    corpus_path: str,
    config: ExperimentConfig,
    include_debloat: bool = False,
) -> List[_Task]:
    """Plan a persisted corpus from its manifest alone — no app ever
    touches parent memory (the O(corpus)-free path for 1000 apps)."""
    manifest = load_manifest(corpus_path)
    tasks: List[_Task] = []
    serial = 0
    for entry in manifest["benchmarks"]:
        instances = list(entry["instances"])
        if include_debloat:
            from repro.workloads.debloat import DEBLOAT_DECOMPILER

            instances.append(
                {"decompiler": DEBLOAT_DECOMPILER, "scenario": "debloat"}
            )
        for inst in instances:
            tasks.append(
                _Task(
                    index=len(tasks),
                    serial_base=serial,
                    benchmark_id=entry["benchmark_id"],
                    decompiler=inst["decompiler"],
                    scenario=inst.get("scenario", "reduction"),
                    app_seed=entry["seed"],
                    units=_cost_units(entry["classes"], entry.get("items")),
                    total_bytes=entry["bytes"],
                    total_classes=entry["classes"],
                    app_path=os.path.join(corpus_path, entry["app_file"]),
                )
            )
            serial += len(config.strategies)
    return tasks


def load_cost_hints(results_path: str) -> Dict[Tuple[str, str], float]:
    """Per-instance wall-cost hints from a prior run's results JSONL.

    Sums ``real_seconds`` over an instance's strategy rows — the
    scheduler dispatches whole instances, so the instance total is the
    unit that matters.  Torn/foreign lines are skipped (the file may
    still be streaming).
    """
    hints: Dict[Tuple[str, str], float] = {}
    with open(results_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            try:
                key = (record["benchmark_id"], record["decompiler"])
                seconds = float(record.get("real_seconds", 0.0))
            except (KeyError, TypeError, ValueError):
                continue
            hints[key] = hints.get(key, 0.0) + seconds
    return hints


# ----------------------------------------------------------------------
# Parent side: commit
# ----------------------------------------------------------------------


def _fallback_error_outcome(
    task: _Task, strategy: str, error: BaseException
) -> InstanceOutcome:
    """The keep-going error outcome for a relayed worker failure.

    With in-memory corpora this is exactly
    :func:`~repro.harness.experiments.error_outcome`; manifest-planned
    tasks rebuild the same record from manifest stats (the manifest's
    ``bytes`` *is* ``len(serialize_application(app))``), so the two
    paths stay byte-identical.
    """
    if task.benchmark is not None and task.instance is not None:
        return error_outcome(task.benchmark, task.instance, strategy, error)
    get_metrics().counter("runner.failures").inc()
    return InstanceOutcome(
        benchmark_id=task.benchmark_id,
        decompiler=task.decompiler,
        strategy=strategy,
        scenario=task.scenario,
        total_bytes=task.total_bytes,
        total_classes=task.total_classes,
        final_bytes=task.total_bytes,
        final_classes=task.total_classes,
        predicate_calls=0,
        real_seconds=0.0,
        simulated_seconds=0.0,
        status="error",
        error=f"{type(error).__name__}: {error}",
    )


def fold_result(
    result: InstanceTaskResult, strategies: Sequence[str]
) -> Iterator[
    Tuple[str, Optional[InstanceOutcome], Optional[BaseException]]
]:
    """Fold one worker shipment into the parent, one strategy at a time.

    For each of ``strategies`` (the spec's, in serial order): re-base
    the shipped events onto the parent clock
    (:meth:`~repro.observability.spans.Tracer.ingest`), merge the
    metrics snapshot into the live registry, then yield
    ``(strategy, outcome, error)`` with exactly one of the two set.
    The error is the relayed exception, the instance-level failure
    that pre-empted the strategy, or a ``RuntimeError`` when the worker
    shipped nothing for it.  The generator is lazy: a caller that stops
    at an error leaves the later strategies unfolded, as ``jobs=1``
    would never have run them.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    offset = 0.0
    if tracer.enabled and result.epoch_unix:
        offset = result.epoch_unix - tracer.epoch_unix
    for i, strategy in enumerate(strategies):
        shipped = (
            result.strategies[i] if i < len(result.strategies) else None
        )
        if shipped is None:
            error = result.error
        else:
            if tracer.enabled:
                for event in shipped.events:
                    tracer.ingest(event, time_offset=offset)
            if shipped.metrics:
                metrics.merge_snapshot(shipped.metrics)
            error = shipped.error
        if error is None and (shipped is None or shipped.outcome is None):
            # A worker never ships a half-empty result unless an
            # instance-level error consumed it; defensive.
            error = RuntimeError(f"worker shipped no result for {strategy}")
        yield strategy, (shipped.outcome if error is None else None), error


class _Committer:
    """Serial-order commit of worker results into parent state."""

    def __init__(
        self,
        config: ExperimentConfig,
        progress: Optional[Callable[[str], None]],
        on_outcome: Optional[Callable[[InstanceOutcome], None]],
        collect: bool,
    ) -> None:
        self.config = config
        self.progress = progress
        self.on_outcome = on_outcome
        self.collect = collect
        self.outcomes: List[InstanceOutcome] = []
        self.count = 0

    def emit(self, outcome: InstanceOutcome) -> None:
        self.count += 1
        if self.collect:
            self.outcomes.append(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        if self.progress is not None:
            self.progress(progress_line(outcome))

    def commit(self, task: _Task, result: InstanceTaskResult) -> None:
        """Fold one worker shipment in, exactly as ``jobs=1`` would."""
        for strategy, outcome, error in fold_result(
            result, self.config.strategies
        ):
            if error is not None:
                if not self.config.keep_going:
                    raise error
                outcome = _fallback_error_outcome(task, strategy, error)
            self.emit(outcome)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


def run_scheduled_corpus_experiment(
    benchmarks: Optional[Iterable[Benchmark]] = None,
    config: Optional[ExperimentConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    store=None,
    store_spec: Optional[StoreSpec] = None,
    corpus_path: Optional[str] = None,
    include_debloat: bool = False,
    on_outcome: Optional[Callable[[InstanceOutcome], None]] = None,
    collect: bool = True,
    cost_hints: Optional[Dict[Tuple[str, str], float]] = None,
) -> Union[List[InstanceOutcome], int]:
    """Run the corpus through the process-parallel instance scheduler.

    Args:
        benchmarks: an in-memory corpus (any iterable — consumed once).
        config: shared strategy knobs; ``config.worker_budget`` (when
            set) clamps ``jobs`` and sizes worker probe pools so total
            live workers stay under budget.
        progress: per-instance status-line callback, in serial order.
        jobs: worker *processes* (None/0: one per CPU; 1 runs inline —
            same enumeration, no pool).
        store: a live predicate store.  Inline runs use it directly; at
            ``jobs != 1`` workers reopen it from :meth:`StoreSpec.of`
            (a live handle cannot cross a spawn).
        store_spec: the picklable store recipe, for callers that hold
            no live handle.  The parent opens it first so the on-disk
            layout exists before workers race to it.
        corpus_path: a persisted corpus directory (from
            :func:`repro.workloads.corpus.save_corpus`) — planned from
            its manifest alone, apps streamed into workers by path;
            mutually exclusive with ``benchmarks``.
        include_debloat: with ``corpus_path``, add one coverage-based
            debloating instance per benchmark.
        on_outcome: streaming consumer called per outcome in serial
            order (pair with ``collect=False`` for O(1)-memory runs).
        collect: return the outcome list (default) or, when False, just
            the outcome count.
        cost_hints: ``{(benchmark_id, decompiler): seconds}`` from
            :func:`load_cost_hints` — prior-run telemetry sharpening
            the longest-job-first order.

    Returns outcomes in serial order — identical on
    :func:`~repro.harness.experiments.outcome_signature` for every
    ``jobs`` — or the count when ``collect=False``.
    """
    config = config or ExperimentConfig()
    if (benchmarks is None) == (corpus_path is None):
        raise ValueError("pass exactly one of benchmarks / corpus_path")
    if corpus_path is not None:
        tasks = _plan_from_manifest(
            corpus_path, config, include_debloat=include_debloat
        )
    else:
        tasks = _plan_in_memory(benchmarks, config)

    jobs = resolve_jobs(jobs)
    budget = (
        WorkerBudget(config.worker_budget)
        if config.worker_budget is not None
        else None
    )
    if budget is not None:
        jobs = budget.corpus_jobs(jobs)

    committer = _Committer(config, progress, on_outcome, collect)
    if jobs == 1:
        _run_inline(tasks, config, store, store_spec, committer)
    else:
        _run_pooled(
            tasks, config, jobs, budget, store, store_spec, committer,
            cost_hints or {},
        )
    return committer.outcomes if collect else committer.count


def _run_inline(
    tasks: List[_Task],
    config: ExperimentConfig,
    store,
    store_spec: Optional[StoreSpec],
    committer: _Committer,
) -> None:
    """The ``jobs=1`` degenerate case: same enumeration, no processes.

    One probe pool serves every instance and no per-task trace contexts
    are attached; manifest tasks materialize on demand and drop after
    use, and outcomes stream.
    """
    opened = None
    if store is None and store_spec is not None:
        store = opened = store_spec.open()
    probes = probe_pool(config, max_workers=probe_cap_for(config, 1))
    try:
        for task in tasks:
            if task.benchmark is not None:
                benchmark, instance = task.benchmark, task.instance
            else:
                benchmark, instance = _materialize(_spec_of(task, config))
            for strategy in config.strategies:
                # run_instance itself degrades a crash to an error
                # outcome under keep_going, and re-raises otherwise.
                committer.emit(
                    run_instance(
                        benchmark, instance, strategy, config, store,
                        probe_executor=probes,
                    )
                )
    finally:
        if probes is not None:
            probes.shutdown(wait=True)
        if opened is not None:
            opened.close()


def _spec_of(
    task: _Task,
    config: ExperimentConfig,
    store_spec: Optional[StoreSpec] = None,
    probe_workers: Optional[int] = None,
    ctx: Optional[Dict[str, Any]] = None,
) -> InstanceTaskSpec:
    app_bytes = original_errors = None
    if task.app_path is None:
        from repro.bytecode.serializer import serialize_application

        app_bytes = serialize_application(task.benchmark.app)
        # An in-memory instance's oracle is built, so its error set is
        # known; a corpus loaded from disk (app_path set) keeps its
        # oracles lazy and unforced.
        original_errors = task.instance.oracle.original_errors
    return InstanceTaskSpec(
        benchmark_id=task.benchmark_id,
        decompiler=task.decompiler,
        scenario=task.scenario,
        strategies=tuple(config.strategies),
        serial_base=task.serial_base,
        app_seed=task.app_seed,
        config=config,
        app_bytes=app_bytes,
        app_path=task.app_path,
        store=store_spec,
        probe_workers=probe_workers,
        ctx=ctx,
        original_errors=original_errors,
    )


def _run_pooled(
    tasks: List[_Task],
    config: ExperimentConfig,
    jobs: int,
    budget: Optional[WorkerBudget],
    store,
    store_spec: Optional[StoreSpec],
    committer: _Committer,
    cost_hints: Dict[Tuple[str, str], float],
) -> None:
    if store is not None and store_spec is None:
        # The live handle's layout already exists on disk.
        store_spec = StoreSpec.of(store)
    elif store_spec is not None and store is None:
        # Materialize the on-disk layout before workers race to open it.
        store_spec.open().close()

    probe_workers = None
    if budget is not None and config.speculate > 1:
        probe_workers = budget.probe_pool_cap(jobs)

    tracer = get_tracer()
    ctx = (
        tracer.current_context().to_dict() if tracer.enabled else None
    )

    # -- adaptive longest-job-first state --------------------------------
    # Predicted seconds = prior-run hint when available, else cost
    # units × the per-scenario EWMA scale (seconds per unit) learned
    # from completed tasks this run.  Scale updates re-rank the pending
    # set because the argmax scan below re-reads predictions live.
    scales: Dict[str, float] = {}

    def predicted(task: _Task) -> float:
        hint = cost_hints.get((task.benchmark_id, task.decompiler))
        if hint is not None:
            return hint
        return task.units * scales.get(task.scenario, 1.0)

    def observe(task: _Task, wall_seconds: float) -> None:
        if task.units <= 0 or wall_seconds <= 0:
            return
        sample = wall_seconds / task.units
        prior = scales.get(task.scenario)
        scales[task.scenario] = (
            sample if prior is None else 0.7 * prior + 0.3 * sample
        )

    pending = list(tasks)
    inflight: Dict[Any, _Task] = {}
    buffered: Dict[int, Tuple[_Task, InstanceTaskResult]] = {}
    next_commit = 0

    with spawn_pool(jobs) as pool:
        while pending or inflight:
            while pending and len(inflight) < jobs:
                # Longest predicted job first (live argmax: estimates
                # sharpen as observations arrive).
                best = max(range(len(pending)),
                           key=lambda i: predicted(pending[i]))
                task = pending.pop(best)
                spec = _spec_of(
                    task, config, store_spec=store_spec,
                    probe_workers=probe_workers, ctx=ctx,
                )
                inflight[pool.submit(run_instance_task, spec)] = task
            done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                task = inflight.pop(future)
                result = future.result()
                observe(task, result.wall_seconds)
                buffered[task.index] = (task, result)
            while next_commit in buffered:
                task, result = buffered.pop(next_commit)
                committer.commit(task, result)
                next_commit += 1

"""Parallel experiment execution and the persistent predicate cache.

The ROADMAP's north star is throughput: the harness used to run every
(benchmark × decompiler × strategy) instance strictly serially with no
outcome reuse across runs, even though the predicate — the paper's
~33-second decompile+compile cycle — is a pure function of (oracle,
kept items).  This package amortizes both axes:

- :mod:`repro.parallel.scheduler` — the one corpus executor
  (``jlreduce bench --jobs N``, and ``repro.harness.run_corpus_experiment``
  under its historical name): ``jobs=1`` runs inline, otherwise whole
  reduction instances fan out to spawn-safe worker processes
  (:class:`InstanceTaskSpec`), dispatched adaptive longest-job-first,
  committed in serial order (outcomes, metrics, spans, ledger), with a
  shared :class:`WorkerBudget` so corpus workers × probe workers never
  oversubscribe the machine,
- :mod:`repro.parallel.store` — the persistent predicate cache tier,
  keyed by oracle fingerprint + canonical sub-input hash, which
  :class:`~repro.reduction.predicate.InstrumentedPredicate` reads
  through and writes back, so repeat runs of the same instance cost
  zero fresh predicate calls: :class:`ShardedPredicateStore`
  (:func:`open_store`) — hash-selected shard files, LRU size-bounded
  residency, threshold compaction, hit/miss/evict telemetry, and
  migration of the older single-file (v1) format,
- :mod:`repro.parallel.speculate` — speculative k-ary prefix search for
  GBR's inner binary search (``--speculate K``): k probes per round run
  concurrently on a dedicated pool, committed in deterministic serial
  order so results stay byte-identical to sequential runs,
- :mod:`repro.parallel.procpool` — probe dispatch: one worker
  function for both ``--probe-backend`` pools.  A thread pool runs the
  parent's chain; the process pool's spawn-safe workers rebuild it from
  a picklable :class:`ProbeTaskSpec`, beating the GIL on the
  pure-Python probe work the thread pool cannot overlap; the parent
  commits results serially, so outcomes stay byte-identical across
  backends.

All of them lean on the concurrency-safe telemetry in
:mod:`repro.observability`: lock-protected metrics and thread-scoped
per-run registries (:func:`~repro.observability.scoped_metrics`), so
concurrent reductions never pollute each other's
``extras['metrics']``.
"""

from repro.parallel.procpool import (
    ProbeTaskSpec,
    ProcessProbePool,
    ToolLatencyPredicate,
    build_worker_predicate,
)
from repro.parallel.scheduler import (
    InstancePool,
    InstanceTaskSpec,
    StoreSpec,
    WorkerBudget,
    close_worker_caches,
    load_cost_hints,
    resolve_jobs,
    run_instance_task,
    run_scheduled_corpus_experiment,
)
from repro.parallel.speculate import (
    candidate_midpoints,
    speculation_allowed,
    speculative_interval_search,
)
from repro.parallel.store import (
    DEFAULT_SHARDS,
    ShardedPredicateStore,
    fingerprint_of,
    key_of,
    open_store,
)

__all__ = [
    "DEFAULT_SHARDS",
    "ShardedPredicateStore",
    "InstancePool",
    "InstanceTaskSpec",
    "ProbeTaskSpec",
    "ProcessProbePool",
    "StoreSpec",
    "ToolLatencyPredicate",
    "WorkerBudget",
    "build_worker_predicate",
    "candidate_midpoints",
    "close_worker_caches",
    "fingerprint_of",
    "key_of",
    "load_cost_hints",
    "run_instance_task",
    "open_store",
    "resolve_jobs",
    "run_scheduled_corpus_experiment",
    "speculation_allowed",
    "speculative_interval_search",
]

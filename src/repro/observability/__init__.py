"""Structured tracing, metrics, and JSONL run telemetry.

The paper's whole evaluation is run telemetry — predicate-invocation
counts, wall-clock, best-size-over-time — and the ROADMAP's performance
work needs per-phase visibility into the solver / #SAT / progression hot
paths.  This package is that layer, zero-dependency and no-op by
default.

Observability v2 (DESIGN.md §9) made it causal and multi-process:

- :mod:`repro.observability.context` — serializable
  :class:`TraceContext` capsules (``run_id``/``trace_id``/``span_id``/
  serial slot/worker shard) that hop threads today and process-pool
  workers next PR,
- :mod:`repro.observability.spans` — nestable span timers with dual
  clocks (wall + virtual), causal parent links across workers via
  :meth:`Tracer.attach`, free-form ledger events, and a process-global
  :class:`Tracer` (disabled unless installed, so instrumented hot paths
  pay one attribute check); spans and ledger events are recorded as
  the dicts their JSONL lines carry, in one list, in emit order,
- :mod:`repro.observability.metrics` — a registry of named counters,
  gauges, and fixed-bucket histograms with ``snapshot()`` / ``reset()``,
- :mod:`repro.observability.shard` — the one trace writer: per-worker
  JSONL shard files, flushed per line, with a deterministic
  serial-commit-order merge,
- :mod:`repro.observability.sink` — JSONL trace load (torn-line
  tolerant), the metric fold, and ``summarize()`` behind ``jlreduce
  trace summarize``,
- :mod:`repro.observability.provenance` — the probe provenance ledger
  (why did this probe run, at what cost on both clocks) behind
  ``jlreduce trace explain``,
- :mod:`repro.observability.profiling` — opt-in per-phase cProfile
  hotspot capture,
- :mod:`repro.observability.tooling` — timeline / folded-stack flame /
  two-clock diff / Prometheus export over the merged event stream.

Instrumented call sites: GBR iterations and prefix-search probes,
progression rebuilds, predicate cache hits/misses and fresh-call
latency, DPLL decisions/propagations/conflicts, #SAT component-cache
hits, MSA clause repairs, per-instance harness phases, and the
resilience layer (``predicate.retries`` / ``predicate.timeouts`` from
:class:`~repro.resilience.predicate.ResilientPredicate`,
``runner.failures`` from degraded corpus instances).

:func:`tracing_session` is the one entry point.  Given a path, it
streams every event to the shard family at that path as it finishes,
and appends the run's metric lines when the block exits, whether it
returns or raises::

    with tracing_session("run.jsonl", label="gbr"):
        result = generalized_binary_reduction(problem)
    summarize(load_traces(["run.jsonl"]))

Without a path, events stay in memory::

    with tracing_session() as (tracer, metrics):
        result = generalized_binary_reduction(problem)
    summarize(tracer.events())
"""

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.observability.context import TraceContext, new_run_id
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    scoped_metrics,
    set_metrics,
)
from repro.observability.profiling import profiled_phase, render_profile
from repro.observability.provenance import (
    current_probe_fields,
    explain,
    probe_scope,
    render_explain,
)
from repro.observability.shard import (
    ShardSet,
    discover_shards,
    encode_line,
    expand_trace_args,
    merge_events,
    shard_path,
)
from repro.observability.sink import (
    fold_metrics,
    load_trace,
    load_traces,
    metric_events,
    render_summary,
    summarize,
)
from repro.observability.spans import (
    NULL_SPAN,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)
from repro.observability.tooling import (
    clock_totals,
    diff_traces,
    folded_stacks,
    prometheus_exposition,
    render_diff,
    render_timeline,
)

__all__ = [
    "TraceContext",
    "new_run_id",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "scoped_metrics",
    "set_metrics",
    "profiled_phase",
    "render_profile",
    "current_probe_fields",
    "explain",
    "probe_scope",
    "render_explain",
    "ShardSet",
    "discover_shards",
    "encode_line",
    "expand_trace_args",
    "merge_events",
    "shard_path",
    "fold_metrics",
    "load_trace",
    "load_traces",
    "metric_events",
    "render_summary",
    "summarize",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "span",
    "clock_totals",
    "diff_traces",
    "folded_stacks",
    "prometheus_exposition",
    "render_diff",
    "render_timeline",
    "tracing_session",
]


@contextmanager
def tracing_session(
    path: Optional[str] = None,
    label: str = "",
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Install a fresh enabled tracer and a fresh metrics registry.

    Yields ``(tracer, metrics)`` scoped to the ``with`` block; the
    previous globals are restored on exit, so nothing from the session
    bleeds into (or out of) the surrounding process state.

    With ``path``, the session opens a
    :class:`~repro.observability.shard.ShardSet` there before the block
    runs (its ``meta`` line carries ``label``; an unwritable path
    raises ``OSError`` before any work) and streams every event to it
    as it finishes.  On exit, whether the block returns or raises, the
    registry's metric lines are appended to the main shard and the
    shards close, so a failed run keeps its trace.  Without ``path``,
    events stay in memory for ``tracer.events()``.
    """
    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    shards = None
    if path is not None:
        shards = ShardSet(path, run_id=tracer.run_id, label=label)
        tracer.set_shards(shards)
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(metrics)
    try:
        yield tracer, metrics
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
        if shards is not None:
            with shards:
                for event in metric_events(metrics, run_id=tracer.run_id):
                    shards.emit_main(event)

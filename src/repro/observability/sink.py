"""JSONL trace files: writing, reading back, merging, aggregating.

A trace file is one JSON object per line, each tagged with a ``type``:

- ``{"type": "meta", ...}`` — one header line (schema version, label,
  run id, shard label),
- ``{"type": "span", "name", "start", "duration", "vstart",
  "vduration", "span_id", "parent_span_id", "run_id", "trace_id",
  "serial", "worker", "seq", "attrs"}`` — one per finished span, with
  both clocks (wall and virtual) and full causal addressing,
- ``{"type": "probe", "event_id", "cache", "outcome", "round",
  "batch_pos", "wall_seconds", "virtual_charge", ...}`` — the probe
  provenance ledger (see :mod:`repro.observability.provenance`),
- ``{"type": "profile", "phase", "top": [...]}`` — opt-in cProfile
  hotspot captures (see :mod:`repro.observability.profiling`),
- ``{"type": "counter" | "gauge", "name", "value"}`` — one per metric,
- ``{"type": "histogram", "name", "buckets", "counts", "sum",
  "count"}`` — one per histogram.

Schema 2 (Observability v2) adds the causal/provenance fields; schema-1
traces still load and summarize (the new fields just read as absent).

Loading is torn-line tolerant the way :mod:`repro.parallel.store` is:
a truncated final line (killed writer, full disk) is skipped, not
fatal, because streamed shards are expected to end mid-line when a
worker dies.  Malformed lines *inside* the file still raise — that is
corruption, not tearing.

The format is append-friendly and diff-friendly: two runs can be
compared with ``jlreduce trace diff a.jsonl b.jsonl`` (or the
``summarize`` tables side by side); sharded runs merge with
:func:`load_traces`, which expands globs, pulls in shard siblings, and
orders events by serial commit order.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Union

from repro.observability.metrics import MetricsRegistry
from repro.observability.shard import expand_trace_args, merge_events
from repro.observability.spans import SpanEvent, Tracer

__all__ = [
    "JsonlSink",
    "write_trace",
    "load_trace",
    "load_traces",
    "metric_events",
    "percentile",
    "summarize",
    "render_summary",
    "TRACE_SCHEMA_VERSION",
]

TRACE_SCHEMA_VERSION = 2

#: How many of the slowest ``instance.run`` spans ``summarize`` keeps.
INSTANCE_TOP = 10


class JsonlSink:
    """Writes JSON-serializable event dicts, one per line.

    Accepts a path (opened lazily, closed by :meth:`close` / ``with``)
    or an already-open text stream (left open).
    """

    def __init__(self, target: Union[str, TextIO]):
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, event: Dict[str, Any]) -> None:
        json.dump(event, self._handle, sort_keys=True, default=str)
        self._handle.write("\n")

    def emit_all(self, events: Iterable[Dict[str, Any]]) -> None:
        for event in events:
            self.emit(event)

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def metric_events(
    metrics: MetricsRegistry, run_id: str = ""
) -> List[Dict[str, Any]]:
    """A registry snapshot as a list of JSONL-able metric events."""
    events: List[Dict[str, Any]] = []
    snapshot = metrics.snapshot()
    for name in sorted(snapshot["counters"]):
        events.append({
            "type": "counter",
            "name": name,
            "value": snapshot["counters"][name],
            "run_id": run_id,
        })
    for name in sorted(snapshot["gauges"]):
        events.append({
            "type": "gauge",
            "name": name,
            "value": snapshot["gauges"][name],
            "run_id": run_id,
        })
    for name in sorted(snapshot["histograms"]):
        hist = snapshot["histograms"][name]
        events.append(
            {"type": "histogram", "name": name, "run_id": run_id, **hist}
        )
    return events


def write_trace(
    target: Union[str, TextIO],
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    label: str = "",
) -> int:
    """Dump a tracer's spans/ledger and a registry's metrics as JSONL.

    Either source may be None.  Returns the number of lines written
    (including the meta header).
    """
    run_id = tracer.run_id if tracer is not None else ""
    lines = 1
    with JsonlSink(target) as sink:
        sink.emit({
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "label": label,
            "run_id": run_id,
            "shard": "main",
        })
        if tracer is not None:
            for event in tracer.events():
                sink.emit(event.to_dict())
                lines += 1
            for raw in tracer.raw_events():
                sink.emit(raw)
                lines += 1
        if metrics is not None:
            for event in metric_events(metrics, run_id=run_id):
                sink.emit(event)
                lines += 1
    return lines


def load_trace(target: Union[str, TextIO]) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts.

    Blank lines are skipped.  A *truncated final line* — one that does
    not end in a newline and does not parse — is skipped silently: that
    is the torn write a killed shard writer leaves behind (same policy
    as :mod:`repro.parallel.store`).  Any other
    malformed line raises ``ValueError`` with the offending line number.
    """
    if isinstance(target, str):
        with open(target, "r", encoding="utf-8") as handle:
            return _parse_lines(handle)
    return _parse_lines(target)


def load_traces(patterns: Sequence[str]) -> List[Dict[str, Any]]:
    """Load several trace files/globs and merge them deterministically.

    Each argument may be a literal path or a glob; base trace files
    automatically pull in their ``.shard-*`` siblings.  Events are
    merged in serial commit order (see
    :func:`repro.observability.shard.merge_events`).
    """
    paths = expand_trace_args(patterns)
    if not paths:
        raise ValueError(f"no trace files match {list(patterns)!r}")
    return merge_events(load_trace(path) for path in paths)


def _parse_lines(handle: TextIO) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    lines = handle.readlines()
    last = len(lines)
    for lineno, line in enumerate(lines, start=1):
        torn_candidate = lineno == last and not line.endswith("\n")
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if torn_candidate:
                # A truncated trailing write from a killed shard
                # writer; everything before it is intact.
                continue
            raise ValueError(f"bad JSONL at line {lineno}: {exc}") from None
        if not isinstance(event, dict):
            raise ValueError(f"bad JSONL at line {lineno}: not an object")
        events.append(event)
    return events


def summarize(
    events: Union[Iterable[Dict[str, Any]], Iterable[SpanEvent]],
) -> Dict[str, Any]:
    """Aggregate trace events into a compact summary.

    Returns::

        {"spans": {name: {"count", "total", "mean", "p95", "max",
                          "vtotal"}},
         "counters": {name: total},
         "gauges": {name: value},
         "histograms": {name: {"count", "sum", "mean", "p50", "p95"}},
         "probes": {"count", "fresh", "store", "errors", "wall_seconds",
                    "virtual_seconds", "retries"},
         "store": {"lookups", "hits", "misses", "hit_rate", "records",
                   "evictions", "compactions", "shard_loads"},
         "service": {"submitted", "admitted", "rejected", "completed",
                     "failed", "queue_depth": {...}, "tenants": {...}},
         "instances": [{"benchmark", "decompiler", "strategy", "serial",
                        "worker", "wall_seconds", "virtual_seconds",
                        "probes", "fresh", "store_hits"}, ...]}

    Accepts either raw :class:`SpanEvent` objects (straight from a
    tracer) or dicts (from :func:`load_trace`); counter lines for the
    same name are summed, so concatenated traces aggregate sensibly.
    The ``probes`` section appears only when the trace carries a
    provenance ledger; the ``store`` section (cache-tier hit rate,
    evictions, compactions — see :mod:`repro.parallel.store`) only when
    the run consulted a persistent predicate store.

    Histogram events carrying bucket bounds and counts (the
    :class:`~repro.observability.metrics.MetricsRegistry` snapshot
    shape) get interpolated ``p50``/``p95`` estimates; repeated
    histogram lines for the same name fold their bucket counts
    together, matching counter semantics.  The ``service`` section
    appears only when a service-tier run emitted ``service.*``
    counters: total and per-tenant admission/completion tallies, tenant
    latency quantiles from the ``service.latency.<tenant>`` histograms,
    and the queue-depth time series sampled into the trace by the
    server's gauge events (their ``t`` field is seconds since the run
    epoch).

    ``instances`` lists the slowest ``instance.run`` spans (at most
    :data:`INSTANCE_TOP`, by wall clock) with their probe tallies
    joined by serial commit number.  Traces without serials (a
    ``--jobs 1`` bench writes every event with serial ``-1``) still
    list the slow instances, but their probe columns read ``None`` —
    probes cannot be attributed to one instance without the serial.
    """
    durations: Dict[str, List[float]] = {}
    vtotals: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    depth_samples: List[Dict[str, float]] = []
    probes = {
        "count": 0,
        "fresh": 0,
        "store": 0,
        "errors": 0,
        "wall_seconds": 0.0,
        "virtual_seconds": 0.0,
        "retries": 0,
    }
    instance_runs: List[Dict[str, Any]] = []
    probes_by_serial: Dict[int, Dict[str, int]] = {}

    for event in events:
        if isinstance(event, SpanEvent):
            event = event.to_dict()
        kind = event.get("type")
        if kind == "span":
            name = event["name"]
            durations.setdefault(name, []).append(float(event["duration"]))
            vtotals[name] = vtotals.get(name, 0.0) + float(
                event.get("vduration", 0.0)
            )
            if name == "instance.run":
                attrs = event.get("attrs") or {}
                instance_runs.append({
                    "benchmark": attrs.get("benchmark", "?"),
                    "decompiler": attrs.get("decompiler", "?"),
                    "strategy": attrs.get("strategy", "?"),
                    "serial": event.get("serial"),
                    "worker": event.get("worker", ""),
                    "wall_seconds": float(event["duration"]),
                    "virtual_seconds": float(event.get("vduration", 0.0)),
                })
        elif kind == "counter":
            name = event["name"]
            counters[name] = counters.get(name, 0) + event["value"]
        elif kind == "gauge":
            gauges[event["name"]] = event["value"]
            if event["name"] == "service.queue_depth" and "t" in event:
                depth_samples.append(
                    {"t": float(event["t"]), "value": float(event["value"])}
                )
        elif kind == "histogram":
            name = event["name"]
            count = event.get("count", 0)
            total = event.get("sum", 0.0)
            buckets = list(event.get("buckets") or [])
            bucket_counts = list(event.get("counts") or [])
            existing = histograms.get(name)
            if existing is not None and existing["buckets"] == buckets:
                existing["count"] += count
                existing["sum"] += total
                existing["counts"] = [
                    a + b
                    for a, b in zip(existing["counts"], bucket_counts)
                ] or existing["counts"]
            else:
                histograms[name] = {
                    "count": count,
                    "sum": total,
                    "buckets": buckets,
                    "counts": bucket_counts,
                }
        elif kind == "probe":
            probes["count"] += 1
            cache = event.get("cache")
            if cache in ("fresh", "store"):
                probes[cache] += 1
            elif cache == "error":
                probes["errors"] += 1
            probes["wall_seconds"] += float(event.get("wall_seconds", 0.0))
            probes["virtual_seconds"] += float(
                event.get("virtual_charge", 0.0)
            )
            probes["retries"] += int(event.get("retries") or 0)
            serial = event.get("serial")
            if isinstance(serial, int) and serial >= 0:
                tally = probes_by_serial.setdefault(
                    serial, {"probes": 0, "fresh": 0, "store_hits": 0}
                )
                tally["probes"] += 1
                if cache == "fresh":
                    tally["fresh"] += 1
                elif cache == "store":
                    tally["store_hits"] += 1

    spans = {
        name: {
            "count": len(values),
            "total": sum(values),
            "mean": sum(values) / len(values),
            "p95": percentile(values, 0.95),
            "max": max(values),
            "vtotal": vtotals.get(name, 0.0),
        }
        for name, values in durations.items()
    }
    for hist in histograms.values():
        hist["mean"] = hist["sum"] / hist["count"] if hist["count"] else 0.0
        hist["p50"] = _histogram_quantile(hist, 0.50)
        hist["p95"] = _histogram_quantile(hist, 0.95)
    summary: Dict[str, Any] = {
        "spans": spans,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
    if probes["count"]:
        summary["probes"] = probes
    if instance_runs:
        for row in instance_runs:
            serial = row["serial"]
            tally = (
                probes_by_serial.get(serial)
                if isinstance(serial, int) and serial >= 0
                else None
            )
            row["probes"] = tally["probes"] if tally else None
            row["fresh"] = tally["fresh"] if tally else None
            row["store_hits"] = tally["store_hits"] if tally else None
        instance_runs.sort(key=lambda row: -row["wall_seconds"])
        summary["instances"] = instance_runs[:INSTANCE_TOP]
        summary["instance_count"] = len(instance_runs)
    lookups = counters.get("store.lookups", 0)
    if lookups:
        hits = counters.get("store.hits", 0)
        summary["store"] = {
            "lookups": lookups,
            "hits": hits,
            "misses": counters.get("store.misses", 0),
            "hit_rate": hits / lookups,
            "records": counters.get("store.records", 0),
            "evictions": counters.get("store.evictions", 0),
            "compactions": counters.get("store.compactions", 0),
            "shard_loads": counters.get("store.shard_loads", 0),
        }
    service = _service_block(counters, histograms, depth_samples)
    if service is not None:
        summary["service"] = service
    return summary


def _service_block(
    counters: Dict[str, float],
    histograms: Dict[str, Dict[str, Any]],
    depth_samples: List[Dict[str, float]],
) -> Optional[Dict[str, Any]]:
    """The service-tier section of a summary, or None for offline runs."""
    if not any(name.startswith("service.") for name in counters):
        return None
    tenants: Dict[str, Dict[str, Any]] = {}

    def _tenant(name: str) -> Dict[str, Any]:
        return tenants.setdefault(name, {
            "admitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
        })

    for name, value in counters.items():
        if not name.startswith("service.tenant."):
            continue
        tenant, _, what = name[len("service.tenant."):].rpartition(".")
        if tenant and what in ("admitted", "rejected", "completed",
                               "failed", "started"):
            _tenant(tenant)[what] = value
    for name, hist in histograms.items():
        if name.startswith("service.latency."):
            tenant = name[len("service.latency."):]
            _tenant(tenant)["latency"] = {
                "count": hist["count"],
                "mean": hist["mean"],
                "p50": hist["p50"],
                "p95": hist["p95"],
            }
    block: Dict[str, Any] = {
        "submitted": counters.get("service.submitted", 0),
        "admitted": counters.get("service.admitted", 0),
        "rejected": counters.get("service.rejected", 0),
        "completed": counters.get("service.completed", 0),
        "failed": counters.get("service.failed", 0),
        "tenants": {name: tenants[name] for name in sorted(tenants)},
    }
    if depth_samples:
        depths = [sample["value"] for sample in depth_samples]
        block["queue_depth"] = {
            "samples": len(depths),
            "mean": sum(depths) / len(depths),
            "max": max(depths),
            "last": depths[-1],
            "series": depth_samples,
        }
    return block


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 on empty input.

    The value at rank ``ceil(q * n)`` (1-based), so the median of
    ``[1, 2, 3, 4, 5]`` is 3 and q = 0 gives the minimum.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _histogram_quantile(hist: Dict[str, Any], q: float) -> float:
    """A quantile estimate from fixed-bucket tallies.

    Linear interpolation inside the bucket holding the target rank,
    Prometheus-style; the overflow bucket reports its lower bound (the
    last edge) since its upper edge is unbounded.  0.0 when empty or
    when the event carried no buckets (a schema-1 trace).
    """
    buckets = hist.get("buckets") or []
    bucket_counts = hist.get("counts") or []
    total = sum(bucket_counts)
    if not buckets or not total:
        return 0.0
    rank = q * total
    seen = 0.0
    for i, n in enumerate(bucket_counts):
        if not n:
            continue
        if seen + n >= rank:
            if i >= len(buckets):
                return float(buckets[-1])
            lower = buckets[i - 1] if i else 0.0
            upper = buckets[i]
            return lower + (upper - lower) * ((rank - seen) / n)
        seen += n
    return float(buckets[-1])


def render_summary(summary: Dict[str, Any]) -> str:
    """Human-readable table for ``jlreduce trace summarize``."""
    lines: List[str] = []
    spans = summary.get("spans", {})
    if spans:
        lines.append("spans (seconds)")
        header = (
            f"  {'name':<28} {'count':>7} {'total':>10} "
            f"{'mean':>10} {'p95':>10}"
        )
        lines.append(header)
        for name in sorted(spans, key=lambda n: -spans[n]["total"]):
            stats = spans[name]
            lines.append(
                f"  {name:<28} {stats['count']:>7} {stats['total']:>10.4f} "
                f"{stats['mean']:>10.6f} {stats['p95']:>10.6f}"
            )
    instances = summary.get("instances")
    if instances:
        if lines:
            lines.append("")
        shown = len(instances)
        total = summary.get("instance_count", shown)
        title = "slowest instances"
        if total > shown:
            title += f" (top {shown} of {total})"
        lines.append(title)
        lines.append(
            f"  {'benchmark':<14} {'decompiler':<10} {'strategy':<12} "
            f"{'probes':>7} {'fresh':>7} {'store':>7} "
            f"{'wall':>9} {'virtual':>10}"
        )
        for row in instances:
            def _cell(value) -> str:
                return "-" if value is None else f"{value:,}"

            lines.append(
                f"  {row['benchmark']:<14} {row['decompiler']:<10} "
                f"{row['strategy']:<12} {_cell(row['probes']):>7} "
                f"{_cell(row['fresh']):>7} {_cell(row['store_hits']):>7} "
                f"{row['wall_seconds']:>8.3f}s "
                f"{row['virtual_seconds']:>9.1f}s"
            )
    probes = summary.get("probes")
    if probes:
        if lines:
            lines.append("")
        lines.append("probes (provenance ledger)")
        lines.append(
            f"  physical={probes['count']:,} fresh={probes['fresh']:,} "
            f"store_hits={probes['store']:,} errors={probes['errors']:,} "
            f"retries={probes['retries']:,}"
        )
        lines.append(
            f"  wall={probes['wall_seconds']:.4f}s "
            f"virtual={probes['virtual_seconds']:.1f}s"
        )
    service = summary.get("service")
    if service:
        if lines:
            lines.append("")
        lines.append("service tier")
        lines.append(
            f"  submitted={service['submitted']:,} "
            f"admitted={service['admitted']:,} "
            f"rejected={service['rejected']:,} "
            f"completed={service['completed']:,} "
            f"failed={service['failed']:,}"
        )
        depth = service.get("queue_depth")
        if depth:
            lines.append(
                f"  queue depth: mean={depth['mean']:.1f} "
                f"max={depth['max']:.0f} last={depth['last']:.0f} "
                f"({depth['samples']} samples)"
            )
        tenants = service.get("tenants", {})
        if tenants:
            lines.append(
                f"  {'tenant':<14} {'admitted':>9} {'rejected':>9} "
                f"{'completed':>10} {'failed':>7} {'p50':>9} {'p95':>9}"
            )
            for name in sorted(tenants):
                row = tenants[name]
                latency = row.get("latency") or {}

                def _secs(value) -> str:
                    return "-" if value is None else f"{value:.3f}s"

                lines.append(
                    f"  {name:<14} {row['admitted']:>9,} "
                    f"{row['rejected']:>9,} {row['completed']:>10,} "
                    f"{row['failed']:>7,} "
                    f"{_secs(latency.get('p50')):>9} "
                    f"{_secs(latency.get('p95')):>9}"
                )
    store = summary.get("store")
    if store:
        if lines:
            lines.append("")
        lines.append("predicate store (cache tier)")
        lines.append(
            f"  lookups={store['lookups']:,} hits={store['hits']:,} "
            f"misses={store['misses']:,} "
            f"hit_rate={store['hit_rate']:.1%}"
        )
        lines.append(
            f"  records={store['records']:,} "
            f"evictions={store['evictions']:,} "
            f"compactions={store['compactions']:,} "
            f"shard_loads={store['shard_loads']:,}"
        )
    counters = summary.get("counters", {})
    if counters:
        if lines:
            lines.append("")
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:<38} {counters[name]:>12,}")
    gauges = summary.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        for name in sorted(gauges):
            lines.append(f"  {name:<38} {gauges[name]:>12}")
    histograms = summary.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms")
        for name in sorted(histograms):
            stats = histograms[name]
            line = (
                f"  {name:<28} count={stats['count']:<8,} "
                f"mean={stats['mean']:.6f}"
            )
            if stats.get("buckets"):
                line += (
                    f" p50={stats['p50']:.6f} p95={stats['p95']:.6f}"
                )
            lines.append(line)
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines)

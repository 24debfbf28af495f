"""Trace tooling over the merged event stream.

Everything here consumes the list-of-dicts form produced by
:func:`repro.observability.sink.load_traces` (shards already merged in
serial commit order) and renders text — no third-party visualization
dependencies:

- :func:`render_timeline` — an indented causal timeline (one line per
  span, children under parents, both clocks, probe ledger inlined);
- :func:`folded_stacks` — Brendan-Gregg-style folded stacks
  (``root;child;leaf <self_weight>``), the interchange format every
  flamegraph renderer accepts;
- :func:`diff_traces` / :func:`render_diff` — compare two runs on both
  clocks; this is what shows a wall-vs-simulated gap (a win on the
  probe model that wall time does not share) from telemetry alone;
- :func:`prometheus_exposition` — metric events as Prometheus text
  exposition format, for scraping or pushgateway-style upload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.observability.sink import fold_metrics, summarize

__all__ = [
    "render_timeline",
    "folded_stacks",
    "clock_totals",
    "diff_traces",
    "render_diff",
    "prometheus_exposition",
]


# -- timeline ----------------------------------------------------------------


def render_timeline(
    events: Sequence[Dict[str, Any]],
    with_probes: bool = True,
    limit: Optional[int] = None,
) -> str:
    """An indented causal timeline of the merged trace.

    Spans print in start order, indented under their parents; each line
    shows both clocks.  Probe ledger events print (indented one deeper)
    under their owning span when ``with_probes``.  ``limit`` truncates
    the output (a ``--jobs 4`` corpus trace can run long).
    """
    spans = [e for e in events if e.get("type") == "span"]
    spans.sort(key=lambda s: (s.get("start", 0.0), s.get("seq", 0)))
    depth: Dict[Optional[str], int] = {None: -1}
    # Two passes: parents may finish (and so appear) after children in
    # emit order, but start order nearly always sees parents first; the
    # fallback depth for an unseen parent is 0.
    probe_by_span: Dict[Optional[str], List[Dict[str, Any]]] = {}
    if with_probes:
        for event in events:
            if event.get("type") == "probe":
                probe_by_span.setdefault(event.get("span_id"), []).append(
                    event
                )
    lines: List[str] = []
    for span in spans:
        parent = span.get("parent_span_id")
        d = depth.get(parent, 0) + 1
        depth[span.get("span_id")] = d
        indent = "  " * d
        attrs = span.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"{span.get('start', 0.0):>9.4f}s {indent}{span.get('name')}"
            f"  [{span.get('span_id')}]"
            f"  wall={float(span.get('duration', 0.0)):.4f}s"
            f"  virtual={float(span.get('vduration', 0.0)):.1f}s"
            + (f"  {attr_text}" if attr_text else "")
        )
        for probe in probe_by_span.get(span.get("span_id"), ()):
            lines.append(
                f"{float(probe.get('t', 0.0)):>9.4f}s {indent}  "
                f"· probe {probe.get('event_id')}"
                f" cache={probe.get('cache')} outcome={probe.get('outcome')}"
                f" wall={float(probe.get('wall_seconds', 0.0)):.4f}s"
            )
        if limit is not None and len(lines) >= limit:
            lines.append(f"... ({len(spans)} spans total, truncated)")
            break
    if not lines:
        lines.append("(no spans)")
    return "\n".join(lines)


# -- flame (folded stacks) ---------------------------------------------------


def folded_stacks(
    events: Sequence[Dict[str, Any]],
    clock: str = "wall",
    scale: float = 1000.0,
) -> str:
    """Folded-stacks output: ``a;b;c <weight>`` per line.

    Weights are *self* time (span duration minus recorded children) on
    the chosen clock (``wall`` or ``virtual``), scaled to integer
    milliseconds by default — the format flamegraph.pl and speedscope
    both ingest.  Identical stacks aggregate.
    """
    if clock not in ("wall", "virtual"):
        raise ValueError(f"clock must be 'wall' or 'virtual', not {clock!r}")
    dur_key = "duration" if clock == "wall" else "vduration"
    spans = [e for e in events if e.get("type") == "span"]
    by_id = {s.get("span_id"): s for s in spans}
    child_total: Dict[Optional[str], float] = {}
    for span in spans:
        parent = span.get("parent_span_id")
        child_total[parent] = child_total.get(parent, 0.0) + float(
            span.get(dur_key, 0.0)
        )
    folded: Dict[str, float] = {}
    for span in spans:
        path: List[str] = []
        cursor: Optional[Dict[str, Any]] = span
        seen = set()
        while cursor is not None:
            sid = cursor.get("span_id")
            if sid in seen:
                break
            seen.add(sid)
            path.append(str(cursor.get("name")))
            cursor = by_id.get(cursor.get("parent_span_id"))
        path.reverse()
        self_time = float(span.get(dur_key, 0.0)) - child_total.get(
            span.get("span_id"), 0.0
        )
        if self_time <= 0.0:
            continue
        key = ";".join(path)
        folded[key] = folded.get(key, 0.0) + self_time
    lines = [
        f"{stack} {max(1, round(weight * scale))}"
        for stack, weight in sorted(folded.items())
    ]
    if not lines:
        lines.append("(no spans)")
    return "\n".join(lines)


# -- diff --------------------------------------------------------------------


def clock_totals(events: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Both end-to-end clocks of a trace: wall and simulated seconds.

    Wall is the sum of *root* span durations (spans whose parent id
    resolves to no span in the trace — covers both true roots and
    schema-1 traces).  Simulated is the ``predicate.virtual_seconds``
    counter when present, else the max span ``vstart + vduration``.
    """
    spans = [e for e in events if e.get("type") == "span"]
    ids = {s.get("span_id") for s in spans}
    wall = sum(
        float(s.get("duration", 0.0))
        for s in spans
        if s.get("parent_span_id") not in ids
    )
    simulated = float(
        fold_metrics(events)["counters"].get("predicate.virtual_seconds", 0.0)
    )
    if simulated == 0.0 and spans:
        simulated = max(
            float(s.get("vstart", 0.0)) + float(s.get("vduration", 0.0))
            for s in spans
        )
    return {"wall": wall, "simulated": simulated}


def diff_traces(
    a_events: Sequence[Dict[str, Any]],
    b_events: Sequence[Dict[str, Any]],
    a_label: str = "a",
    b_label: str = "b",
) -> Dict[str, Any]:
    """Compare two traces on both clocks, with per-span deltas.

    Returns ``{"labels", "clocks": {wall: {a, b, speedup}, simulated:
    {...}}, "spans": [{name, a, b, delta}...]}``.  ``speedup`` is
    ``a / b`` (how much faster ``b`` is), 0.0 when ``b`` spent nothing.
    A wall-vs-simulated disagreement — thread speculation once measured
    2.38x simulated but 0.85x wall — falls straight out of the two
    speedups.
    """
    a_clocks = clock_totals(a_events)
    b_clocks = clock_totals(b_events)
    clocks: Dict[str, Any] = {}
    for key in ("wall", "simulated"):
        a_val, b_val = a_clocks[key], b_clocks[key]
        clocks[key] = {
            "a": a_val,
            "b": b_val,
            "speedup": (a_val / b_val) if b_val else 0.0,
        }
    a_spans, b_spans = (
        {name: stats["total"] for name, stats in summarize(e)["spans"].items()}
        for e in (a_events, b_events)
    )
    spans = [
        {
            "name": name,
            "a": a_spans.get(name, 0.0),
            "b": b_spans.get(name, 0.0),
            "delta": b_spans.get(name, 0.0) - a_spans.get(name, 0.0),
        }
        for name in sorted(set(a_spans) | set(b_spans))
    ]
    spans.sort(key=lambda row: -abs(row["delta"]))
    return {"labels": [a_label, b_label], "clocks": clocks, "spans": spans}


def render_diff(diff: Dict[str, Any], top: int = 12) -> str:
    """Human-readable two-clock comparison for ``jlreduce trace diff``."""
    a_label, b_label = diff["labels"]
    lines = [f"trace diff: a={a_label}  b={b_label}", ""]
    lines.append("clocks")
    for key in ("wall", "simulated"):
        row = diff["clocks"][key]
        lines.append(
            f"  {key:<10} a={row['a']:>10.3f}s  b={row['b']:>10.3f}s  "
            f"speedup(a/b)={row['speedup']:.2f}x"
        )
    wall = diff["clocks"]["wall"]["speedup"]
    sim = diff["clocks"]["simulated"]["speedup"]
    if wall and sim and (sim / wall > 1.5 or wall / sim > 1.5):
        lines.append(
            f"  note: clocks disagree ({sim:.2f}x simulated vs "
            f"{wall:.2f}x wall) — wall-clock costs are not where the "
            f"probe model says they are"
        )
    rows = diff["spans"][:top]
    if rows:
        lines.append("")
        lines.append("largest span deltas (wall seconds, b - a)")
        for row in rows:
            lines.append(
                f"  {row['name']:<28} a={row['a']:>9.3f}  "
                f"b={row['b']:>9.3f}  delta={row['delta']:>+9.3f}"
            )
    return "\n".join(lines)


# -- prometheus export -------------------------------------------------------


def _prom_name(name: str) -> str:
    safe = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return safe


def prometheus_exposition(
    events: Sequence[Dict[str, Any]], prefix: str = "jlreduce"
) -> str:
    """Metric events rendered as Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total``, gauges plain gauges,
    histograms native Prometheus histograms with cumulative ``le``
    buckets plus ``_sum``/``_count``.  Repeated lines of one name
    (concatenated shards) fold as in
    :func:`~repro.observability.sink.fold_metrics`: counters summed,
    gauges last, histograms bucket-merged.
    """
    metrics = fold_metrics(events)
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    histograms = metrics["histograms"]

    lines: List[str] = []
    for name in sorted(counters):
        metric = f"{prefix}_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")
    for name in sorted(gauges):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[name]}")
    for name in sorted(histograms):
        hist = histograms[name]
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        buckets = hist.get("buckets") or []
        counts = hist.get("counts") or []
        for bound, count in zip(buckets, counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        # counts has one more entry than buckets: the +Inf overflow.
        if len(counts) > len(buckets):
            cumulative += counts[-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {hist['sum']}")
        lines.append(f"{metric}_count {hist['count']}")
    if not lines:
        return "# (no metrics)\n"
    return "\n".join(lines) + "\n"

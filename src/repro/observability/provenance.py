"""The probe provenance ledger: why did this probe run, at what cost?

Every *physical* probe — a fresh predicate call or a cross-run store
hit, never a memo hit — emits one ``{"type": "probe"}`` ledger event
via :meth:`Tracer.event` (see
:meth:`repro.reduction.predicate.InstrumentedPredicate`).  The event
carries:

- causal addressing (``event_id``, ``span_id``, ``run_id``,
  ``trace_id``, ``serial``, ``worker``, ``seq``) and both clocks
  (``t`` wall, ``vt`` virtual) — stamped by the tracer;
- ``cache`` — ``"fresh"``, ``"store"``, or ``"error"`` for a fresh
  call that raised (retries exhausted, budget exhausted, a crash): it
  has no outcome, charges no virtual time and is not a fresh call, but
  keeps the retries and timeouts its attempts spent;
- ``error`` — on ``"error"`` entries, the exception's type and message;
- ``outcome`` — the predicate's boolean verdict (None on an error);
- ``key`` — a short stable hash of the probed subset (joins a probe to
  its store entry);
- ``wall_seconds`` / ``virtual_charge`` — what the probe cost on each
  clock (store hits charge 0 virtual seconds);
- ``round`` / ``batch_pos`` — which speculation round issued it and
  where it sat in the batch (absent for sequential probes), annotated
  via :func:`probe_scope`;
- ``discarded`` — true for a probe that physically ran but whose
  outcome was thrown away because an earlier-in-order probe of the
  same speculative round raised (the sequential run would never have
  issued it); discarded probes charge 0 virtual seconds but still get
  their one ledger event (an ``"error"`` one if they raised too);
- ``attempts`` / ``retries`` / ``timeouts`` — per-probe deltas from a
  wrapping :class:`~repro.resilience.predicate.ResilientPredicate`;
- ``budget_calls`` / ``budget_seconds`` — per-probe charges against a
  wrapping :class:`~repro.resilience.budget.Budget`.

Memo hits stay counter-only (``predicate.cache_hits``): they dominate
the hot path by an order of magnitude and recording each one would
blow the ≤5% tracing-overhead budget for information the counters
already carry.

:func:`explain` is the read side: given a merged event stream and a
probe handle (its ``event_id``, or a ``key`` prefix), it resolves the
probe's full causal chain — the span it ran under, that span's
ancestors up to the root — and renders the "why and what it cost"
answer ``jlreduce trace explain`` prints.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "probe_scope",
    "current_probe_fields",
    "explain",
    "render_explain",
]

_SCOPE = threading.local()


@contextmanager
def probe_scope(**fields: Any) -> Iterator[None]:
    """Annotate probes issued inside the block (thread-local, nestable).

    The speculation engine wraps each batch in
    ``probe_scope(round=n)``; the batch executor adds ``batch_pos``.
    Inner scopes shadow outer keys for their duration.
    """
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = []
        _SCOPE.stack = stack
    stack.append(fields)
    try:
        yield
    finally:
        stack.pop()


def current_probe_fields() -> Dict[str, Any]:
    """The merged annotations of all active :func:`probe_scope` blocks."""
    stack = getattr(_SCOPE, "stack", None)
    if not stack:
        return {}
    merged: Dict[str, Any] = {}
    for fields in stack:
        merged.update(fields)
    return merged


def explain(
    events: Sequence[Dict[str, Any]], handle: str
) -> Dict[str, Any]:
    """Resolve one probe's full provenance chain from a merged trace.

    ``handle`` matches a probe by exact ``event_id`` first, then by
    ``key`` prefix (first match in serial order).  Returns::

        {"probe": <the probe event>,
         "chain": [<owning span>, <its parent>, ..., <root span>]}

    Raises ``ValueError`` when no probe matches or a parent link
    dangles (which the tracer's leaked-span emission should prevent).
    """
    probes = [e for e in events if e.get("type") == "probe"]
    if not probes:
        raise ValueError("trace carries no probe ledger (schema-1 trace, "
                         "or the run was not traced)")
    probe = next(
        (p for p in probes if p.get("event_id") == handle), None
    )
    if probe is None:
        probe = next(
            (p for p in probes
             if str(p.get("key", "")).startswith(handle)),
            None,
        )
    if probe is None:
        raise ValueError(f"no probe matches {handle!r}")

    spans = {
        e["span_id"]: e
        for e in events
        if e.get("type") == "span" and e.get("span_id")
    }
    chain: List[Dict[str, Any]] = []
    span_id: Optional[str] = probe.get("span_id")
    seen = set()
    while span_id is not None:
        if span_id in seen:
            raise ValueError(f"span parent cycle at {span_id!r}")
        seen.add(span_id)
        span = spans.get(span_id)
        if span is None:
            raise ValueError(
                f"dangling span id {span_id!r} in provenance chain"
            )
        chain.append(span)
        span_id = span.get("parent_span_id")
    return {"probe": probe, "chain": chain}


def render_explain(resolution: Dict[str, Any]) -> str:
    """Human-readable provenance report for ``jlreduce trace explain``."""
    probe = resolution["probe"]
    chain = resolution["chain"]
    lines: List[str] = []
    lines.append(f"probe {probe.get('event_id')}")
    verdict = (
        f"  key={probe.get('key', '?')} cache={probe.get('cache', '?')} "
        f"outcome={probe.get('outcome')}"
    )
    if probe.get("error"):
        verdict += f" ERROR ({probe['error']})"
    if probe.get("discarded"):
        verdict += " DISCARDED (an earlier probe in the round raised)"
    lines.append(verdict)
    lines.append(
        f"  worker={probe.get('worker', 'main')} "
        f"serial={probe.get('serial', -1)} "
        f"trace={probe.get('trace_id', '')}"
    )
    rnd = probe.get("round")
    if rnd is not None:
        lines.append(
            f"  speculation: round={rnd} batch_pos={probe.get('batch_pos')}"
        )
    cost = (
        f"  cost: wall={float(probe.get('wall_seconds', 0.0)):.4f}s "
        f"virtual={float(probe.get('virtual_charge', 0.0)):.1f}s"
    )
    attempts = probe.get("attempts")
    if attempts is not None:
        cost += (
            f" attempts={attempts} retries={probe.get('retries', 0)} "
            f"timeouts={probe.get('timeouts', 0)}"
        )
    lines.append(cost)
    if probe.get("budget_calls") is not None:
        lines.append(
            f"  budget: calls={probe.get('budget_calls')} "
            f"seconds={float(probe.get('budget_seconds', 0.0)):.1f}"
        )
    lines.append("  causal chain (innermost first):")
    if not chain:
        lines.append("    (no owning span — probe ran outside any span)")
    for span in chain:
        attrs = span.get("attrs") or {}
        attr_text = " ".join(
            f"{k}={v}" for k, v in sorted(attrs.items())
        )
        lines.append(
            f"    {span.get('span_id')}  {span.get('name')}"
            f"  wall={float(span.get('duration', 0.0)):.4f}s"
            f"  virtual={float(span.get('vduration', 0.0)):.1f}s"
            + (f"  [{attr_text}]" if attr_text else "")
        )
    return "\n".join(lines)

"""Nestable span timers with causal contexts and dual clocks.

A *span* is a named, timed region of execution with free-form
attributes and a parent (the span open on the same logical task when it
started).  Spans form trees, so a trace of one reduction run reads like
a profile: ``gbr.run`` contains ``gbr.iteration`` contains
``progression.build`` contains ``solver.solve`` and so on.

What changed in Observability v2 (see DESIGN.md §9):

- **Trace contexts.**  Every event carries ``run_id`` / ``trace_id`` /
  ``span_id`` / ``parent_span_id``.  A
  :class:`~repro.observability.context.TraceContext` captured with
  :meth:`Tracer.current_context` can be handed to a worker (thread
  today, process-pool worker next) and re-attached with
  :meth:`Tracer.attach`, so the worker's root spans parent onto the
  spawning span instead of floating free.
- **Dual clocks.**  Spans record wall time (``start``/``duration``,
  ``perf_counter`` relative to the tracer epoch) *and* virtual time
  (``vstart``/``vduration``, read from a per-task virtual-clock
  provider installed with :meth:`Tracer.clock` — the harness installs
  the run's :meth:`InstrumentedPredicate.virtual_now`).  This is what
  lets ``trace diff`` reproduce the BENCH_5 wall-vs-simulated gap from
  telemetry alone.
- **Streaming shard sinks.**  With :meth:`Tracer.set_shards`, finished
  events stream to per-worker JSONL shard files instead of
  accumulating in memory (see :mod:`repro.observability.shard`).
- **Free-form events.**  :meth:`Tracer.event` emits non-span ledger
  entries (probe provenance, profiles) with the same context stamps.

Design constraints (this is a hot-path layer):

- **No-op by default.**  The process-global tracer starts disabled, and
  a disabled tracer returns a shared singleton null span — no
  allocation and no clock reads — so instrumented code pays one
  attribute check.
- **Thread-local nesting.**  Each thread keeps its own stack of open
  spans; *lexical* parent links never cross threads — cross-thread
  causality is attached explicitly via contexts.
- **No dangling parents.**  Sampled-out spans (``sample_every``) are
  never pushed on the stack, so a child whose parent was sampled out
  attaches to the nearest recorded ancestor; spans leaked open when an
  ancestor exits are emitted (marked ``leaked``) rather than silently
  discarded, so every ``parent_span_id`` in a trace resolves.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from contextlib import contextmanager

from repro.observability.context import TraceContext, new_run_id

__all__ = [
    "SpanEvent",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "span",
]


@dataclass(frozen=True)
class SpanEvent:
    """One finished span, causally addressed and dual-clocked.

    ``span_id``/``parent_id`` tie the events into a tree (``parent_id``
    is None for roots); ids are ``"<worker>:<seq>"`` strings, unique
    across workers.  ``start`` is wall seconds since the tracer epoch
    and ``duration`` wall seconds; ``vstart``/``vduration`` are the
    virtual-clock equivalents (0.0 when no virtual clock was attached).
    ``serial`` is the owning task's serial commit position and ``seq``
    the tracer-wide emit index — together the deterministic merge key.
    """

    name: str
    start: float
    duration: float
    span_id: str
    parent_id: Optional[str]
    run_id: str = ""
    trace_id: str = ""
    serial: int = -1
    worker: str = "main"
    seq: int = 0
    vstart: float = 0.0
    vduration: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly form (the JSONL sinks write these)."""
        return {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "vstart": self.vstart,
            "vduration": self.vduration,
            "span_id": self.span_id,
            "parent_span_id": self.parent_id,
            "run_id": self.run_id,
            "trace_id": self.trace_id,
            "serial": self.serial,
            "worker": self.worker,
            "seq": self.seq,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The do-nothing span returned by a disabled tracer (a singleton)."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attr(self, name: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Public handle on the shared null span.  Hot paths that would pay for
#: building a ``**attrs`` dict before ``Tracer.span`` can even decline it
#: check ``tracer.enabled`` themselves and use this directly::
#:
#:     cm = tracer.span("solver.solve", clauses=n) if tracer.enabled else NULL_SPAN
NULL_SPAN = _NULL_SPAN


class _Span:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "seq",
        "_ctx",
        "_start",
        "_vstart",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        span_id: str,
        parent_id: Optional[str],
        seq: int,
        ctx: Optional[TraceContext],
        vstart: float,
    ):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self._ctx = ctx
        self._start = time.perf_counter()
        self._vstart = vstart

    def set_attr(self, name: str, value: Any) -> None:
        """Attach/overwrite an attribute while the span is open."""
        self.attrs[name] = value

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self, time.perf_counter())


class Tracer:
    """Records spans and ledger events, in memory or onto shard sinks.

    Args:
        enabled: a disabled tracer hands out null spans and records
            nothing; the process-global default tracer is disabled.
        sample_every: stride sampling for high-frequency spans — record
            only every Nth ``span()`` call (1 = record all).  The stride
            counter is a plain attribute increment, not locked: under
            threads the sampling is best-effort, which is fine for a
            load-shedding knob.  Sampled-out spans never enter the
            nesting stack, so their children re-parent onto the nearest
            recorded ancestor (no dangling ids).
        run_id: the telemetry session id stamped on every event
            (generated when omitted).
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_every: int = 1,
        run_id: Optional[str] = None,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self._enabled = enabled
        self._sample_every = sample_every
        self._sample_tick = 0
        self._epoch = time.perf_counter()
        self.epoch_unix = time.time()
        self.run_id = run_id if run_id is not None else new_run_id()
        self._events: List[SpanEvent] = []
        self._raw: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._next_seq = 0
        self._local = threading.local()
        self._shards = None

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def streaming(self) -> bool:
        """Are events streaming to shard files (vs buffering in memory)?

        The service tier keys on this: thread-backend workers share the
        parent's tracer, which is only safe to use concurrently when
        events bypass the snapshot-and-clear in-memory buffer.
        """
        return self._shards is not None

    @property
    def sample_every(self) -> int:
        return self._sample_every

    # -- contexts and clocks -------------------------------------------------

    def current_context(self) -> TraceContext:
        """The serializable capsule a worker needs to continue this trace.

        ``span_id`` is the innermost *recorded* open span on this thread
        (sampled-out spans never qualify), so a re-attached worker links
        to an id that is guaranteed to appear in the merged trace.
        """
        ctx = getattr(self._local, "ctx", None)
        stack = getattr(self._local, "stack", None)
        if stack:
            parent = stack[-1].span_id
        elif ctx is not None:
            parent = ctx.span_id
        else:
            parent = None
        if ctx is not None:
            return TraceContext(
                run_id=ctx.run_id,
                trace_id=ctx.trace_id,
                span_id=parent,
                serial=ctx.serial,
                worker=ctx.worker,
            )
        return TraceContext(
            run_id=self.run_id, trace_id=self.run_id, span_id=parent
        )

    @contextmanager
    def attach(
        self,
        ctx: TraceContext,
        clock: Optional[Callable[[], float]] = None,
    ) -> Iterator[TraceContext]:
        """Re-attach a captured context on the current thread.

        Root spans opened inside the block parent onto ``ctx.span_id``,
        and every event is stamped with the context's trace id, serial
        slot, and worker shard.  ``clock`` optionally carries the
        spawning task's virtual-clock provider across the thread hop.
        """
        previous_ctx = getattr(self._local, "ctx", None)
        previous_stack = getattr(self._local, "stack", None)
        previous_clock = getattr(self._local, "vclock", None)
        self._local.ctx = ctx
        # A fresh nesting stack: the attached parent is causal, not
        # lexical, so pre-existing open spans on this thread (a pool
        # thread reused across tasks) must not leak into the new task.
        self._local.stack = []
        if clock is not None:
            self._local.vclock = clock
        try:
            yield ctx
        finally:
            self._local.ctx = previous_ctx
            self._local.stack = previous_stack
            self._local.vclock = previous_clock

    @contextmanager
    def clock(self, provider: Callable[[], float]) -> Iterator[None]:
        """Install a virtual-clock provider for the current thread.

        While active, spans and events record ``vstart``/``vduration``
        (resp. ``vt``) from ``provider()`` — the harness installs the
        run's ``InstrumentedPredicate.virtual_now`` so telemetry carries
        the simulated clock next to the wall clock.
        """
        previous = getattr(self._local, "vclock", None)
        self._local.vclock = provider
        try:
            yield
        finally:
            self._local.vclock = previous

    def current_clock(self) -> Optional[Callable[[], float]]:
        """This thread's virtual-clock provider, if any."""
        return getattr(self._local, "vclock", None)

    def virtual_now(self) -> float:
        """The attached virtual clock's reading (0.0 without one)."""
        provider = getattr(self._local, "vclock", None)
        return provider() if provider is not None else 0.0

    # -- shard routing -------------------------------------------------------

    def set_shards(self, shards) -> None:
        """Stream events to a per-worker shard set instead of memory.

        ``shards`` duck-types ``emit(worker, event_dict)`` (see
        :class:`repro.observability.shard.ShardSet`).  Passing ``None``
        restores in-memory accumulation.
        """
        self._shards = shards

    # -- spans and events ----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a nested span (a context manager).

        Usage::

            with tracer.span("progression.build", scope=12) as sp:
                ...
                sp.set_attr("entries", len(entries))
        """
        if not self._enabled:
            return _NULL_SPAN
        if self._sample_every > 1:
            self._sample_tick += 1
            if self._sample_tick % self._sample_every:
                return _NULL_SPAN
        stack = self._stack()
        ctx = getattr(self._local, "ctx", None)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        worker = ctx.worker if ctx is not None else "main"
        span_id = f"{worker}:{seq}"
        if stack:
            parent_id = stack[-1].span_id
        elif ctx is not None:
            parent_id = ctx.span_id
        else:
            parent_id = None
        open_span = _Span(
            self,
            name,
            dict(attrs),
            span_id,
            parent_id,
            seq,
            ctx,
            self.virtual_now(),
        )
        stack.append(open_span)
        return open_span

    def event(
        self,
        event_type: str,
        span_id: Optional[str] = None,
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        """Emit a free-form ledger event with full context stamps.

        Used for the probe provenance ledger (``type == "probe"``) and
        profiling captures (``type == "profile"``).  ``span_id``
        overrides the causal parent (default: the innermost open span).
        Returns the emitted dict (its ``event_id`` is the stable handle
        ``trace explain`` resolves), or None when disabled.
        """
        if not self._enabled:
            return None
        ctx = getattr(self._local, "ctx", None)
        stack = getattr(self._local, "stack", None)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        worker = ctx.worker if ctx is not None else "main"
        if span_id is None:
            if stack:
                span_id = stack[-1].span_id
            elif ctx is not None:
                span_id = ctx.span_id
        event = {
            "type": event_type,
            "event_id": f"{worker}:e{seq}",
            "span_id": span_id,
            "run_id": ctx.run_id if ctx is not None else self.run_id,
            "trace_id": ctx.trace_id if ctx is not None else self.run_id,
            "serial": ctx.serial if ctx is not None else -1,
            "worker": worker,
            "seq": seq,
            "t": time.perf_counter() - self._epoch,
            "vt": self.virtual_now(),
        }
        event.update(fields)
        if self._shards is not None:
            self._shards.emit(worker, event)
        else:
            with self._lock:
                self._raw.append(event)
        return event

    def adopt(self, payload: Dict[str, Any]) -> Optional[str]:
        """Re-emit a worker-built span payload under this tracer.

        Probe-pool workers (threads and processes alike) never touch a
        live tracer — they handcraft span payload dicts (see
        :func:`repro.parallel.procpool._evaluate_probe`) and ship them
        back with their results.  The parent adopts each payload at the
        probe's serial commit position: a fresh tracer-wide ``seq`` is
        assigned (keeping the deterministic shard merge order) and the
        span id is minted as ``"<worker>:<seq>"``, unique because the
        worker label carries the pid.  ``parent_span_id`` is taken from
        the payload — the spawning context's span — so the merged trace
        stays one connected tree.  Returns the minted span id, or None
        when disabled.
        """
        if not self._enabled:
            return None
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        worker = payload.get("worker", "main")
        span_id = f"{worker}:{seq}"
        event = SpanEvent(
            name=payload.get("name", "adopted"),
            start=float(payload.get("start", 0.0)),
            duration=float(payload.get("duration", 0.0)),
            vstart=float(payload.get("vstart", 0.0)),
            vduration=float(payload.get("vduration", 0.0)),
            span_id=span_id,
            parent_id=payload.get("parent_span_id"),
            run_id=payload.get("run_id") or self.run_id,
            trace_id=payload.get("trace_id") or self.run_id,
            serial=int(payload.get("serial", -1)),
            worker=worker,
            seq=seq,
            attrs=dict(payload.get("attrs") or {}),
        )
        if self._shards is not None:
            self._shards.emit(event.worker, event.to_dict())
        else:
            with self._lock:
                self._events.append(event)
        return span_id

    def ingest(
        self, payload: Dict[str, Any], time_offset: float = 0.0
    ) -> None:
        """Commit a worker-tracer event verbatim, preserving its ids.

        The corpus scheduler's worker processes run a *real* tracer
        (unlike probe workers, which handcraft payloads for
        :meth:`adopt`): their events already carry globally-unique span
        ids (``"p<pid>:<seq>"``) and correct intra-instance parent
        links, which must survive the hop — re-minting ids here would
        orphan every child span.  Worker seqs are preserved too: the
        shard merge key is ``(serial, seq, position)``, one task's
        events all come from one worker, and serials never straddle
        tasks, so intra-task order is exactly the worker's emit order.

        ``time_offset`` re-bases the worker's wall clock (its ``start``
        / ``t`` are relative to *its* tracer epoch) onto this tracer's:
        pass ``worker_epoch_unix - parent.epoch_unix``.
        """
        if not self._enabled:
            return
        payload = dict(payload)
        worker = payload.get("worker", "main")
        if payload.get("type") == "span":
            event = SpanEvent(
                name=payload.get("name", "ingested"),
                start=float(payload.get("start", 0.0)) + time_offset,
                duration=float(payload.get("duration", 0.0)),
                vstart=float(payload.get("vstart", 0.0)),
                vduration=float(payload.get("vduration", 0.0)),
                span_id=payload.get("span_id", f"{worker}:?"),
                parent_id=payload.get("parent_span_id"),
                run_id=payload.get("run_id") or self.run_id,
                trace_id=payload.get("trace_id") or self.run_id,
                serial=int(payload.get("serial", -1)),
                worker=worker,
                seq=int(payload.get("seq", 0)),
                attrs=dict(payload.get("attrs") or {}),
            )
            if self._shards is not None:
                self._shards.emit(event.worker, event.to_dict())
            else:
                with self._lock:
                    self._events.append(event)
            return
        if "t" in payload:
            payload["t"] = float(payload["t"]) + time_offset
        if self._shards is not None:
            self._shards.emit(worker, payload)
        else:
            with self._lock:
                self._raw.append(payload)

    def events(self) -> List[SpanEvent]:
        """Snapshot of the finished spans, in finish order.

        In shard-streaming mode events go to the shard files instead;
        read them back with :func:`repro.observability.sink.load_traces`.
        """
        with self._lock:
            return list(self._events)

    def raw_events(self) -> List[Dict[str, Any]]:
        """Snapshot of the free-form ledger events (probes, profiles)."""
        with self._lock:
            return list(self._raw)

    def clear(self) -> None:
        """Drop recorded events (open spans are unaffected)."""
        with self._lock:
            self._events.clear()
            self._raw.clear()

    # -- internals -----------------------------------------------------------

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, open_span: _Span, end: float) -> None:
        stack = self._stack()
        # Pop back to (and including) this span.  Spans leaked open
        # above it (a caller that never exited) are emitted rather than
        # discarded — their ids may already be parent links in recorded
        # children, and a merged trace must never dangle.
        while stack:
            top = stack.pop()
            if top is open_span:
                break
            top.attrs.setdefault("leaked", True)
            self._emit(top, end)
        self._emit(open_span, end)

    def _emit(self, open_span: _Span, end: float) -> None:
        ctx = open_span._ctx
        vend = self.virtual_now()
        event = SpanEvent(
            name=open_span.name,
            start=open_span._start - self._epoch,
            duration=end - open_span._start,
            vstart=open_span._vstart,
            vduration=max(0.0, vend - open_span._vstart),
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            run_id=ctx.run_id if ctx is not None else self.run_id,
            trace_id=ctx.trace_id if ctx is not None else self.run_id,
            serial=ctx.serial if ctx is not None else -1,
            worker=ctx.worker if ctx is not None else "main",
            seq=open_span.seq,
            attrs=open_span.attrs,
        )
        if self._shards is not None:
            self._shards.emit(event.worker, event.to_dict())
        else:
            with self._lock:
                self._events.append(event)


#: The process-global tracer; disabled (no-op) until someone installs an
#: enabled one (the CLI's ``--trace`` does, tests do).
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled by default)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous tracer."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


def span(name: str, **attrs: Any):
    """Open a span on the process-global tracer."""
    return _GLOBAL_TRACER.span(name, **attrs)

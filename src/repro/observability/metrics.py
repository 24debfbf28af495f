"""A registry of named counters, gauges, and fixed-bucket histograms.

Unlike tracing (which is off by default because spans read the clock),
metrics are always on: incrementing a counter is one lock-protected
integer add, cheap enough for every call site in this codebase.  Truly
hot inner loops (DPLL propagation) still aggregate locally and push one
``inc`` per solver call — see :mod:`repro.logic.solver`.

Naming convention: dotted lowercase paths, ``<subsystem>.<what>``, e.g.
``solver.decisions``, ``counting.cache_hits``, ``predicate.calls``.

Concurrency model (speculative probe pools and thread-backend instance
pools run reductions on many threads, all hitting this registry):

- every metric carries its own lock, so concurrent ``inc``/``set``/
  ``observe`` calls never lose updates;
- a registry can have a *parent*: every update is applied locally and
  then forwarded up the chain, so a scoped child sees only its own
  activity while the parent keeps the process-wide totals;
- :func:`scoped_metrics` installs a fresh child registry for the
  *current thread only* (:func:`get_metrics` checks the thread-local
  override first).  A reduction run wrapped in ``scoped_metrics()`` gets
  exact per-run counters even when other runs execute concurrently —
  this is what ``ReductionResult.extras['metrics']`` is built from.

The registry is process-global by default (:func:`get_metrics`), with
:func:`set_metrics` for swapping in a fresh one around a run — the CLI's
``--trace`` and the tests do this so runs don't bleed into each other.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "scoped_metrics",
    "counter_deltas",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Upper bounds (seconds) for latency histograms: 10 µs .. 10 s, with an
#: implicit overflow bucket above the last edge.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """A monotonically-increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock", "_parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()
        self._parent = parent

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n
        if self._parent is not None:
            self._parent.inc(n)

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value (last write wins; thread-safe)."""

    __slots__ = ("name", "value", "_lock", "_parent")

    def __init__(self, name: str, parent: Optional["Gauge"] = None):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()
        self._parent = parent

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
        if self._parent is not None:
            self._parent.set(value)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Histogram:
    """A fixed-bucket histogram (cumulative-style, like Prometheus).

    ``buckets`` are sorted upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit
    overflow bucket past the end.  ``counts`` has ``len(buckets) + 1``
    entries (the last one is the overflow).  Observations are
    thread-safe.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "_lock",
                 "_parent")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float],
        parent: Optional["Histogram"] = None,
    ):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()
        self._parent = parent

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1
        if self._parent is not None:
            self._parent.observe(value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(
        self, counts: Sequence[int], total: float, count: int
    ) -> None:
        """Fold another histogram's tallies in (forwards up the chain)."""
        with self._lock:
            for i, n in enumerate(counts):
                if i < len(self.counts):
                    self.counts[i] += n
            self.sum += total
            self.count += count
        if self._parent is not None:
            self._parent.merge(counts, total, count)

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.sum = 0.0
            self.count = 0


class MetricsRegistry:
    """Get-or-create registry of named metrics with snapshot/reset.

    Args:
        parent: optional registry every update is forwarded to.  A child
            registry sees only its own activity (perfect for per-run
            attribution) while the parent keeps accumulating totals —
            see :func:`scoped_metrics`.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self._lock = threading.Lock()
        self._parent = parent
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def parent(self) -> Optional["MetricsRegistry"]:
        return self._parent

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    upstream = (
                        self._parent.counter(name) if self._parent else None
                    )
                    counter = Counter(name, parent=upstream)
                    self._counters[name] = counter
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    upstream = (
                        self._parent.gauge(name) if self._parent else None
                    )
                    gauge = Gauge(name, parent=upstream)
                    self._gauges[name] = gauge
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    upstream = (
                        self._parent.histogram(name, buckets)
                        if self._parent
                        else None
                    )
                    histogram = Histogram(name, buckets, parent=upstream)
                    self._histograms[name] = histogram
        return histogram

    # -- snapshots -----------------------------------------------------------

    def counter_values(self) -> Dict[str, int]:
        """Plain ``{name: value}`` of the counters (cheap, for diffing)."""
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of every registered metric."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {
                    n: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for n, h in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        The corpus scheduler's worker processes run under their own
        registries and ship snapshots home with each result; merging at
        serial commit time keeps the parent's totals identical to an
        in-process run.  Counters add, gauges last-write-win, histogram
        bucket counts and sums add (bucket bounds must match — they are
        the module-constant latency buckets everywhere today).
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            if not data.get("count"):
                continue
            histogram = self.histogram(
                name, tuple(data.get("buckets") or DEFAULT_LATENCY_BUCKETS)
            )
            histogram.merge(
                data.get("counts", []),
                data.get("sum", 0.0),
                data.get("count", 0),
            )

    def reset(self) -> None:
        """Zero every metric (registrations are kept; parents untouched)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for gauge in self._gauges.values():
                gauge.reset()
            for histogram in self._histograms.values():
                histogram.reset()


def counter_deltas(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Per-counter increase from ``before`` to ``after`` (non-zero only).

    Kept for trace tooling and tests; run attribution now uses
    :func:`scoped_metrics` instead, which stays exact when several runs
    execute concurrently.
    """
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value - before.get(name, 0)
    }


_GLOBAL_METRICS = MetricsRegistry()
_THREAD_SCOPE = threading.local()


def get_metrics() -> MetricsRegistry:
    """The active registry: the thread's scope if set, else the global."""
    scoped = getattr(_THREAD_SCOPE, "registry", None)
    if scoped is not None:
        return scoped
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous registry.

    This swaps the process-wide default; thread-local scopes installed
    by :func:`scoped_metrics` still take precedence on their threads.
    """
    global _GLOBAL_METRICS
    previous = _GLOBAL_METRICS
    _GLOBAL_METRICS = registry
    return previous


@contextmanager
def scoped_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install a per-run child registry for the current thread.

    Inside the ``with`` block, :func:`get_metrics` on *this thread*
    returns a fresh child of the previously-active registry.  Updates
    apply to the child and forward to the parent chain, so:

    - the child's :meth:`~MetricsRegistry.counter_values` is exactly
      this run's activity, even with concurrent runs on other threads;
    - process-wide totals (and any ``--trace`` session registry) still
      see everything.

    Scopes nest; the previous scope is restored on exit.
    """
    child = registry if registry is not None else MetricsRegistry(
        parent=get_metrics()
    )
    previous = getattr(_THREAD_SCOPE, "registry", None)
    _THREAD_SCOPE.registry = child
    try:
        yield child
    finally:
        _THREAD_SCOPE.registry = previous

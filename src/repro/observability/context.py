"""Causal trace contexts that survive thread and process hops.

BENCH_5 exposed the diagnostic gap this module closes: speculation is
2.38x in simulated seconds but 0.85x in wall-clock, and the old
telemetry could not say *where* the wall time went because span parent
links never crossed threads — a probe evaluated on the speculation pool
produced a root span, causally orphaned from the ``speculate.round``
that issued it.

A :class:`TraceContext` is the serializable capsule that fixes that:

- ``run_id`` — one telemetry session (one CLI invocation, one bench);
- ``trace_id`` — one causal tree inside the run (the corpus runner
  derives one per instance task, so a merged trace groups cleanly);
- ``span_id`` — the nearest *recorded* span in the spawning frame; a
  worker that re-attaches the context parents its root spans here, so
  the merged timeline is one connected tree;
- ``serial`` — the task's serial commit position (the order
  ``scheduler.py``/``speculate.py`` commit results in), the primary sort
  key of the deterministic shard merge;
- ``worker`` — the shard label (``main``, ``w0`` ...); doubles as the
  span-id namespace so ids stay unique across workers and, next PR,
  across processes.

The capsule is a plain frozen dataclass of JSON-able scalars, so it
pickles into a ``ProcessPoolExecutor`` worker as cheaply as it hops a
thread: serialize with :meth:`to_dict`, rebuild with :meth:`from_dict`,
re-attach with :meth:`~repro.observability.spans.Tracer.attach`.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

__all__ = ["TraceContext", "new_run_id"]


def new_run_id(prefix: str = "run") -> str:
    """A fresh, globally-unique run identifier (``run-<12 hex>``)."""
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@dataclass(frozen=True)
class TraceContext:
    """Where in the causal tree the current code is executing.

    ``serial`` is -1 for code outside any serially-committed task (the
    parent process before fan-out); the shard merge sorts those events
    first.
    """

    run_id: str
    trace_id: str
    span_id: Optional[str] = None
    serial: int = -1
    worker: str = "main"

    def task(
        self,
        serial: int,
        worker: str,
        trace_id: Optional[str] = None,
    ) -> "TraceContext":
        """The context a fanned-out task should attach.

        Keeps the spawning span as the causal parent, moves to the
        task's serial slot and worker shard, and (by default) derives a
        per-task trace id so one instance's events group together.
        """
        return replace(
            self,
            serial=serial,
            worker=worker,
            trace_id=(
                trace_id
                if trace_id is not None
                else f"{self.trace_id}/{serial:04d}"
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON/pickle-friendly form (for process-pool workers)."""
        return {
            "run_id": self.run_id,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "serial": self.serial,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(
            run_id=payload["run_id"],
            trace_id=payload["trace_id"],
            span_id=payload.get("span_id"),
            serial=int(payload.get("serial", -1)),
            worker=payload.get("worker", "main"),
        )

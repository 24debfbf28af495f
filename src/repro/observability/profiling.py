"""Opt-in per-phase cProfile capture, emitted into the trace stream.

Tracing answers *which phase* is slow; profiling answers *which
function inside the phase*.  Thread speculation winning 2.38x on the
simulated clock but losing 0.85x on wall-clock is exactly the kind of
finding that needs both: the trace shows ``speculate.round``
eating the time, the profile shows the GIL-bound batch plumbing inside
it.

:func:`profiled_phase` wraps one phase of work in a ``cProfile``
profiler and emits a ``{"type": "profile"}`` ledger event carrying the
top-N hotspots (by cumulative time) plus folded call counts.  It is
strictly opt-in (``--profile-phases``): cProfile costs far more than
the ≤5% tracing budget, so it must never be on by default, and the
overhead gate (BENCH_6) runs without it.

Profiling is per-thread (cProfile hooks ``sys.setprofile`` on the
calling thread only) and non-reentrant: a nested ``profiled_phase``
inside an active one is a no-op, because two profilers on one thread
would fight over the hook.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.observability.spans import Tracer, get_tracer

__all__ = ["profiled_phase", "render_profile"]

_ACTIVE = threading.local()


@contextmanager
def profiled_phase(
    phase: str,
    top: int = 10,
    tracer: Optional[Tracer] = None,
) -> Iterator[None]:
    """Profile the block and emit a ``profile`` event with top hotspots.

    ``phase`` labels the capture (e.g. ``"reduce"``); ``top`` bounds the
    hotspot table.  Uses the process-global tracer unless one is given;
    with a disabled tracer (or when nested inside another active
    capture on this thread) the block runs unprofiled.
    """
    tracer = tracer if tracer is not None else get_tracer()
    if not tracer.enabled or getattr(_ACTIVE, "on", False):
        yield
        return
    profiler = cProfile.Profile()
    _ACTIVE.on = True
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        _ACTIVE.on = False
        tracer.event("profile", phase=phase, top=_hotspots(profiler, top))


def _hotspots(profiler: cProfile.Profile, top: int) -> List[Dict[str, Any]]:
    """The top-N functions by cumulative time, JSONL-friendly."""
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, lineno, name = func
        rows.append({
            "func": _func_label(filename, lineno, name),
            "calls": nc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    rows.sort(key=lambda r: (-r["cumtime"], r["func"]))
    return rows[:top]


def _func_label(filename: str, lineno: int, name: str) -> str:
    if filename == "~":  # builtins
        return name
    short = filename
    for marker in ("/src/", "/lib/"):
        idx = filename.rfind(marker)
        if idx >= 0:
            short = filename[idx + len(marker):]
            break
    else:
        short = filename.rsplit("/", 1)[-1]
    return f"{short}:{lineno}:{name}"


def render_profile(event: Dict[str, Any]) -> str:
    """Human-readable hotspot table for one ``profile`` event."""
    lines = [f"profile: phase={event.get('phase', '?')}"]
    rows = event.get("top") or []
    if not rows:
        lines.append("  (no samples)")
        return "\n".join(lines)
    lines.append(
        f"  {'cumtime':>10} {'tottime':>10} {'calls':>8}  function"
    )
    for row in rows:
        lines.append(
            f"  {row['cumtime']:>10.4f} {row['tottime']:>10.4f} "
            f"{row['calls']:>8}  {row['func']}"
        )
    return "\n".join(lines)

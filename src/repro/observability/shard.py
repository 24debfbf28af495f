"""Per-worker JSONL trace shards and their deterministic merge.

The PR-2 JSONL sink assumed one writer in one process: the tracer
buffered every event in memory and ``write_trace`` dumped the lot at
the end.  That breaks twice on the ROADMAP's path — a process-pool
worker cannot append to the parent's buffer, and a killed run loses its
whole trace.  Shards fix both:

- **One shard file per worker.**  A :class:`ShardSet` owns the base
  trace path; worker ``main`` writes the base file itself, worker ``w3``
  writes ``<base stem>.shard-w3.jsonl`` next to it.  Each shard opens
  with its own ``meta`` line (schema, run id, shard label) and every
  event line is flushed on write, so a crashed worker leaves at most
  one torn final line — which the tolerant loader skips, exactly like
  :mod:`repro.parallel.store`.
- **Deterministic merge.**  Events carry ``serial`` (the owning task's
  serial commit position — the same order ``scheduler.py`` commits
  outcomes and ``speculate.py`` commits batch results) and ``seq`` (per-tracer
  emit index).  :func:`merge_events` sorts by ``(serial, seq)``:
  parent-process events (serial -1) first, then each task's events in
  emit order, regardless of which worker thread actually ran it or how
  the shard files interleaved on disk.  Two runs of the same corpus
  produce the same merged *structure* (wall-clock fields still vary).

:func:`discover_shards` maps a base trace path back to the full shard
family, so every ``trace`` subcommand can be pointed at the file the
user passed to ``--trace`` and transparently see the whole run.
"""

from __future__ import annotations

import glob as _glob
import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO

__all__ = [
    "ShardSet",
    "discover_shards",
    "expand_trace_args",
    "merge_events",
    "shard_path",
]

#: Keeps shard filenames legible and glob-discoverable.
_SHARD_MARK = ".shard-"


def shard_path(base: str, worker: str) -> str:
    """The shard file a worker writes: ``trace.jsonl`` → ``trace.shard-w0.jsonl``."""
    if worker == "main":
        return base
    stem, ext = os.path.splitext(base)
    safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in worker)
    return f"{stem}{_SHARD_MARK}{safe}{ext or '.jsonl'}"


def discover_shards(base: str) -> List[str]:
    """The base trace file plus any sibling worker shards, sorted."""
    stem, ext = os.path.splitext(base)
    family = sorted(_glob.glob(f"{_glob.escape(stem)}{_SHARD_MARK}*{ext}"))
    paths = [base] if os.path.exists(base) else []
    return paths + [p for p in family if p != base]


def expand_trace_args(patterns: Sequence[str]) -> List[str]:
    """CLI file arguments → concrete trace paths (globs + shard family).

    Each argument may be a literal path or a glob; every resolved base
    path additionally pulls in its shard siblings, so ``trace summarize
    bench.jsonl`` sees the whole ``--jobs 4`` run.  Order is stable and
    duplicates are dropped.
    """
    seen: Dict[str, None] = {}
    for pattern in patterns:
        if _glob.has_magic(pattern):
            # An unmatched glob contributes nothing (the caller reports
            # "no trace files match"); a literal path passes through so
            # a typo'd filename still gets a clear open() error.
            matches = sorted(_glob.glob(pattern))
        else:
            matches = [pattern]
        for match in matches:
            for path in discover_shards(match) or [match]:
                seen.setdefault(path, None)
    return list(seen)


def merge_events(
    event_lists: Iterable[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-shard event lists into one serial-commit-ordered list.

    Sort key: ``(serial, seq)`` — parent-process events (serial -1)
    first, then tasks in the order the corpus executor commits them;
    within a task, tracer emit order.  Events without the v2 keys
    (schema-1 traces) sort by their original position, so old traces
    still merge stably.  ``meta`` lines float to the front.
    """
    merged: List[Dict[str, Any]] = []
    metas: List[Dict[str, Any]] = []
    position = 0
    for events in event_lists:
        for event in events:
            if event.get("type") == "meta":
                metas.append(event)
                continue
            serial = event.get("serial", -1)
            seq = event.get("seq", position)
            merged.append((serial, seq, position, event))  # type: ignore[arg-type]
            position += 1
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return metas + [event for (_, _, _, event) in merged]


class _ShardWriter:
    """One locked, flushed JSONL shard file."""

    def __init__(self, path: str, header: Dict[str, Any]):
        self.path = path
        self._handle: TextIO = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.emit(header)

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.close()


class ShardSet:
    """Routes events to per-worker shard files (thread-safe).

    Install on a tracer with
    :meth:`~repro.observability.spans.Tracer.set_shards`; the tracer
    then streams every finished span and ledger event here, keyed by
    the worker label of the event's attached
    :class:`~repro.observability.context.TraceContext`.
    """

    def __init__(self, base: str, run_id: str, label: str = ""):
        self.base = base
        self.run_id = run_id
        self.label = label
        self._writers: Dict[str, _ShardWriter] = {}
        self._lock = threading.Lock()

    def emit(self, worker: str, event: Dict[str, Any]) -> None:
        self._writer_for(worker).emit(event)

    def emit_main(self, event: Dict[str, Any]) -> None:
        """Append a line to the main shard (end-of-run metrics dump)."""
        self.emit("main", event)

    def paths(self) -> List[str]:
        with self._lock:
            return [w.path for w in self._writers.values()]

    def close(self) -> None:
        with self._lock:
            for writer in self._writers.values():
                writer.close()
            self._writers.clear()

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _writer_for(self, worker: str) -> _ShardWriter:
        writer = self._writers.get(worker)
        if writer is None:
            with self._lock:
                writer = self._writers.get(worker)
                if writer is None:
                    # Imported here: sink imports shard for merging.
                    from repro.observability.sink import TRACE_SCHEMA_VERSION

                    writer = _ShardWriter(
                        shard_path(self.base, worker),
                        {
                            "type": "meta",
                            "schema": TRACE_SCHEMA_VERSION,
                            "label": self.label,
                            "run_id": self.run_id,
                            "shard": worker,
                        },
                    )
                    self._writers[worker] = writer
        return writer

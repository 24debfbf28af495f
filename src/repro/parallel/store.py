"""Persistent predicate outcomes: a sharded, content-addressed cache tier.

The paper's wall-clock is dominated by predicate invocations — one
decompile+compile cycle averages ~33 s — and the outcome of a predicate
on a kept-item set is a pure function of (oracle, kept items).  So the
single highest-leverage cache in the system is one that *persists*
those outcomes across processes: a repeat run of the same instance
against a warm store costs zero fresh predicate calls.

Key scheme (two-level, collision-resistant):

- **fingerprint** — a stable identifier of the oracle: which program,
  which decompiler, at which granularity the predicate operates, and
  (optionally) which *tenant* owns the run (the harness hashes the
  serialized application bytes; see ``repro.harness.experiments``).
  Entries under different fingerprints never mix, so one store can
  serve a whole corpus — and many tenants — at once.
- **key** — SHA-256 over the sorted, *length-prefixed* ``repr()``
  renderings of the kept items.  Canonical: independent of set
  iteration order and of the item objects' identity, so any process
  that reaches the same kept-item set hits the same entry.  The length
  prefix makes the encoding injective over rendering lists (a naive
  separator-join let an item containing the separator collide with a
  pair of items), and ``repr`` — unlike ``str`` — distinguishes items
  of different types that happen to print alike (``1`` vs ``"1"``, or
  two item dataclasses sharing a bracket rendering).

One class implements the tier, :class:`ShardedPredicateStore` (opened
through :func:`open_store`): a directory of N JSONL shard files
selected by key hash, loaded *lazily* (startup cost is proportional to
the shards a run actually touches, not to total history), with an LRU,
size-bounded in-memory index (whole shards are evicted and re-faulted
from disk, so eviction never loses outcomes) and threshold-triggered
compaction (a shard whose dead or duplicate lines exceed a ratio is
rewritten in place, guarded by an exclusive lock file).  Opening an
older single-file (v1) store migrates it into shards automatically
(the original is kept as ``<path>.v1``).

File format: one JSON object per line, ``{"f": fingerprint, "k":
key, "v": outcome}`` for a predicate verdict.  The same shards also
hold opaque *records* (``{"f": namespace, "k": key, "p": payload}``,
the payload a string; the harness keeps compiled reduction problems in
them, see :mod:`repro.harness.problems`): they share the appends, the
torn-line tolerance, the eviction, the compaction and the v1 migration
of verdicts.  Append-only, so concurrent
writers on POSIX never corrupt earlier entries; a torn final line
(killed process, full disk) is tolerated on load and repaired by the
next opener.  Two processes that open the same torn shard
simultaneously may *both* append the repair newline — the resulting
blank line is tolerated on load too.  Within one process the store
is thread-safe (one lock around the memory index and the descriptors).

Multi-process appends: each record is written as **one** ``os.write``
on an ``O_APPEND`` file descriptor.  POSIX makes an ``O_APPEND`` write
atomic with respect to the file offset, so concurrent appenders —
several ``jlreduce`` processes sharing one store, or the process probe
backend's parents — interleave whole lines, never fragments.  When two
writers disagree on an outcome (a flaky oracle, a chaos run), the
*last line wins* on the next load: every record of a key is appended,
and the loader keeps the latest.  ``tests/parallel/test_store.py``
hammers both properties with real concurrent appender processes.

Telemetry: the store feeds the active metrics registry —
``store.lookups`` / ``store.hits`` / ``store.misses`` /
``store.records`` / ``store.evictions`` / ``store.compactions`` /
``store.shard_loads`` / ``store.lines_scanned`` /
``store.migrated_entries`` — so warm-store hit rates land in JSONL
traces, ``jlreduce trace summarize``, and ``jlreduce metrics export``.
The lookup, hit, miss and record counters count verdicts only; record
reads and writes leave them alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Optional, Tuple, Union,
)

from repro.observability import get_metrics

__all__ = [
    "DEFAULT_SHARDS",
    "KeyMemo",
    "ShardedPredicateStore",
    "fingerprint_of",
    "key_of",
    "open_store",
]

VarName = Hashable
#: What one store line holds: a verdict, or an opaque record payload.
Value = Union[bool, str]

#: Default shard-file count for :class:`ShardedPredicateStore`.  Small
#: enough that a cold corpus run touches most shards anyway, large
#: enough that one shard holds ~1/16 of history (startup scans shrink
#: proportionally) and concurrent appenders rarely contend.
DEFAULT_SHARDS = 16

#: A compaction lock file older than this is presumed leaked by a
#: killed process and is broken.
_LOCK_GRACE_SECONDS = 300.0

_SQLITE_MAGIC = b"SQLite format 3\x00"


def fingerprint_of(*parts: str) -> str:
    """A stable oracle fingerprint from arbitrary string parts.

    Parts are length-prefixed, so no choice of part contents can make
    two different part lists hash alike.
    """
    digest = hashlib.sha256()
    for part in parts:
        encoded = part.encode("utf-8")
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()


def key_of(sub_input: Iterable[VarName]) -> str:
    """Canonical hash of a kept-item set (order-independent).

    Each item's ``repr`` is length-prefixed before hashing, so the
    encoding is injective over the sorted rendering list: an item
    whose rendering contains a would-be separator can never alias a
    different set, and distinct items never share an entry unless
    their ``repr``\\ s are truly identical.
    """
    parts = sorted(repr(v) for v in sub_input)
    rendered = "".join(f"{len(part)}:{part}" for part in parts)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class KeyMemo:
    """:func:`key_of` with each item's rendering computed once.

    A predicate keys many probes over one item universe; the memo keeps
    each item's ``repr`` and its length-prefixed rendering, so a probe
    costs a sort and a hash, not a ``repr`` per item.  Keys are
    byte-identical to :func:`key_of`'s.
    """

    __slots__ = ("_reprs", "_rendered")

    def __init__(self) -> None:
        self._reprs: Dict[VarName, str] = {}
        self._rendered: Dict[str, str] = {}

    def __call__(self, sub_input: Iterable[VarName]) -> str:
        reprs = self._reprs
        try:
            parts = sorted(map(reprs.__getitem__, sub_input))
        except KeyError:
            for item in sub_input:
                if item not in reprs:
                    part = reprs[item] = repr(item)
                    self._rendered[part] = f"{len(part)}:{part}"
            parts = sorted(map(reprs.__getitem__, sub_input))
        rendered = "".join(map(self._rendered.__getitem__, parts))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _parse_line(stripped: str) -> Optional[Tuple[str, str, Value]]:
    """One JSONL line as ``(fingerprint, key, value)``, or None.

    The value is the verdict of a ``"v"`` line or the payload string
    of a ``"p"`` (record) line.
    """
    try:
        entry = json.loads(stripped)
        if "p" in entry:
            payload = entry["p"]
            if not isinstance(payload, str):
                return None
            return entry["f"], entry["k"], payload
        return entry["f"], entry["k"], bool(entry["v"])
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def _line(fingerprint: str, key: str, value: Value) -> str:
    """The JSONL line (without newline) that :func:`_parse_line` reads."""
    field = "v" if isinstance(value, bool) else "p"
    return json.dumps({"f": fingerprint, "k": key, field: value})


def _drain_v1_file(path: str) -> Tuple[Dict[Tuple[str, str], Value], int]:
    """Read a v1 single-file store and move it aside to ``<path>.v1``.

    Returns the surviving entries (last write wins) and the count of
    malformed lines.  Raises :class:`ValueError`, leaving the file in
    place, when it is a sqlite database: an outside file handed in as a
    store path, not a v1 store.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(_SQLITE_MAGIC))
    if head.startswith(_SQLITE_MAGIC):
        raise ValueError(
            f"{path} is a sqlite database, not a predicate store; pass "
            "a store directory (or a v1 JSONL file to migrate)"
        )
    entries: Dict[Tuple[str, str], Value] = {}
    corrupt = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            parsed = _parse_line(stripped)
            if parsed is None:
                corrupt += 1
                continue
            fingerprint, key, value = parsed
            entries[(fingerprint, key)] = value
    os.replace(path, path + ".v1")
    return entries, corrupt


class ShardedPredicateStore:
    """The cache tier: N lazily-loaded JSONL shards under one directory.

    Layout::

        <path>/
            store.json        # manifest: {"version": 2, "shards": N}
            shard-000.jsonl   # records whose key hashes to shard 0
            ...

    A record lands in shard ``int(key[:8], 16) % shards`` — content
    addressing over the canonical sub-input hash, so every process
    (and every tenant, via the fingerprint namespace) agrees on the
    placement without coordination.

    Lazy loading: opening the store reads only the manifest.  A shard
    is scanned on the first lookup or record that touches it, so
    startup cost is proportional to the shards a run actually uses —
    not to total history (the v1 store's O(history) startup scan is
    exactly what this tier removes).

    Eviction (``max_entries``): the in-memory index is an LRU over
    *whole shards*.  When resident entries exceed the bound, the
    least-recently-used shards are dropped (and their append
    descriptors closed).  Disk is never touched by eviction — a later
    lookup simply re-faults the shard — so the bound trades memory for
    re-scan cost, never for correctness.

    Compaction: a shard whose scan finds more than ``compact_ratio``
    dead lines (duplicates superseded by last-write-wins, malformed
    lines) across at least ``compact_min_lines`` lines is rewritten in
    place — live entries only — before this process starts appending.
    The rewrite is guarded by an exclusive ``.lock`` file (stale locks
    older than five minutes are broken) and lands via atomic
    ``os.replace``.  An append raced in by *another* process between
    the scan and the replace can be lost; that is safe for a cache of
    pure-function outcomes — the worst case is one redundant fresh
    probe later, never a wrong answer.

    Migration: pointing this class at an existing v1 single-file store
    ingests every surviving entry into shards and keeps the original
    as ``<path>.v1``.

    Concurrent creation: all openers should agree on ``shards``; once a
    manifest exists it wins over the constructor argument.  If two
    creators race with different counts, the loser's records may land
    in a shard the winner's layout never consults — which degrades to
    a cache miss and one redundant probe, never a wrong outcome.
    """

    MANIFEST = "store.json"

    def __init__(
        self,
        path,
        shards: int = DEFAULT_SHARDS,
        max_entries: Optional[int] = None,
        compact_ratio: float = 0.5,
        compact_min_lines: int = 256,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._max_entries = max_entries
        self._compact_ratio = compact_ratio
        self._compact_min_lines = compact_min_lines
        self._closed = False
        self.corrupt_lines = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compactions = 0
        self.shard_loads = 0
        self.migrated_entries = 0
        pending: Optional[Dict[Tuple[str, str], Value]] = None
        if os.path.isfile(self._path):
            pending, corrupt = _drain_v1_file(self._path)
            self.corrupt_lines += corrupt
        self._shards = self._init_layout(shards)
        #: Resident shard indexes, LRU-ordered (oldest first).
        self._resident: "OrderedDict[int, Dict[Tuple[str, str], Value]]" = (
            OrderedDict()
        )
        self._resident_entries = 0
        self._fds: Dict[int, int] = {}
        self._needs_newline: Dict[int, bool] = {}
        if pending is not None:
            self._ingest(pending)

    key_of = staticmethod(key_of)

    # -- lookup / record -----------------------------------------------------

    def lookup(
        self,
        fingerprint: str,
        sub_input: FrozenSet[VarName],
        key: Optional[str] = None,
    ) -> Optional[bool]:
        """The stored outcome for this oracle + sub-input, or None.

        ``key`` is the sub-input's :func:`key_of`, when the caller has
        it already (a :class:`KeyMemo`'s); the same key then serves
        the :meth:`record` of a fresh outcome.  Faults the key's shard
        into memory on first touch (one scan of that shard file,
        counted in ``store.shard_loads``).

        Raises:
            ValueError: the store has been :meth:`close`\\ d.
        """
        if key is None:
            key = key_of(sub_input)
        metrics = get_metrics()
        metrics.counter("store.lookups").inc()
        outcome = self._get(fingerprint, key)
        if not isinstance(outcome, bool):
            outcome = None
        if outcome is None:
            self.misses += 1
            metrics.counter("store.misses").inc()
        else:
            self.hits += 1
            metrics.counter("store.hits").inc()
        return outcome

    def record(
        self,
        fingerprint: str,
        sub_input: FrozenSet[VarName],
        outcome: bool,
        key: Optional[str] = None,
    ) -> None:
        """Persist an outcome (idempotent; last write wins on conflict).

        One ``os.write`` on the shard's ``O_APPEND`` descriptor —
        atomic against concurrent appenders in other processes sharing
        the shard, and unbuffered so a killed process loses at most the
        record it was writing.  ``key`` is as in :meth:`lookup`.

        Raises:
            ValueError: the store has been :meth:`close`\\ d.
        """
        if key is None:
            key = key_of(sub_input)
        if self._put(fingerprint, key, bool(outcome)):
            get_metrics().counter("store.records").inc()

    def lookup_record(self, namespace: str, key: str) -> Optional[str]:
        """The payload recorded under ``namespace`` and ``key``, or None.

        ``key`` must be hex (its first eight digits pick the shard).
        No ``store.*`` counter moves: those count verdicts.

        Raises:
            ValueError: the store has been :meth:`close`\\ d.
        """
        payload = self._get(namespace, key)
        return payload if isinstance(payload, str) else None

    def put_record(self, namespace: str, key: str, payload: str) -> None:
        """Persist an opaque payload; the counterpart of
        :meth:`lookup_record`, appended like a verdict.

        Raises:
            ValueError: the store has been :meth:`close`\\ d.
        """
        self._put(namespace, key, payload)

    def _get(self, fingerprint: str, key: str) -> Optional[Value]:
        with self._lock:
            if self._closed:
                raise ValueError("store is closed")
            entries = self._shard_entries(self._shard_of_key(key))
            return entries.get((fingerprint, key))

    def _put(self, fingerprint: str, key: str, value: Value) -> bool:
        """Append one line unless it is already the live value.  True
        when it was appended."""
        payload = (_line(fingerprint, key, value) + "\n").encode("utf-8")
        with self._lock:
            if self._closed:
                raise ValueError("store is closed")
            shard = self._shard_of_key(key)
            entries = self._shard_entries(shard)
            current = entries.get((fingerprint, key))
            if current == value:
                return False
            if current is None:
                self._resident_entries += 1
            entries[(fingerprint, key)] = value
            os.write(self._fd_of(shard), payload)
            self._evict(exclude=shard)
            return True

    # -- lifecycle -----------------------------------------------------------

    def __len__(self) -> int:
        """Resident (in-memory) entries — *not* total history on disk."""
        return self._resident_entries

    @property
    def path(self) -> str:
        return self._path

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def max_entries(self) -> Optional[int]:
        return self._max_entries

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every shard descriptor.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for fd in self._fds.values():
                os.close(fd)
            self._fds.clear()

    def __enter__(self) -> "ShardedPredicateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _init_layout(self, shards: int) -> int:
        """Create or adopt the store directory; return the shard count."""
        os.makedirs(self._path, exist_ok=True)
        manifest_path = os.path.join(self._path, self.MANIFEST)
        adopted = self._read_manifest(manifest_path)
        if adopted is not None:
            return adopted
        payload = json.dumps(
            {"version": 2, "backend": "jsonl", "shards": shards}
        )
        # Unique tmp per process so concurrent creators never tear each
        # other's manifest; os.replace is atomic, last writer wins, and
        # re-reading converges every opener on the winner.
        tmp = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, manifest_path)
        adopted = self._read_manifest(manifest_path)
        return adopted if adopted is not None else shards

    def _read_manifest(self, manifest_path: str) -> Optional[int]:
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            count = int(manifest["shards"])
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"corrupt store manifest {manifest_path}: {exc}"
            ) from exc
        if count < 1:
            raise ValueError(
                f"corrupt store manifest {manifest_path}: shards={count}"
            )
        return count

    def _shard_of_key(self, key: str) -> int:
        return int(key[:8], 16) % self._shards

    def _shard_path(self, shard: int) -> str:
        return os.path.join(self._path, f"shard-{shard:03d}.jsonl")

    def _shard_entries(self, shard: int) -> Dict[Tuple[str, str], Value]:
        """The shard's entry dict, faulting it from disk if needed."""
        entries = self._resident.get(shard)
        if entries is not None:
            self._resident.move_to_end(shard)
            return entries
        entries, lines_total, corrupt, needs_newline = self._scan_shard(shard)
        self.corrupt_lines += corrupt
        self.shard_loads += 1
        metrics = get_metrics()
        metrics.counter("store.shard_loads").inc()
        if lines_total:
            metrics.counter("store.lines_scanned").inc(lines_total)
        dead = lines_total - len(entries)
        if (
            lines_total >= self._compact_min_lines
            and dead / lines_total >= self._compact_ratio
        ):
            if self._compact_shard(shard, entries):
                needs_newline = False
        self._resident[shard] = entries
        self._resident_entries += len(entries)
        self._needs_newline[shard] = needs_newline
        self._evict(exclude=shard)
        return entries

    def _scan_shard(
        self, shard: int
    ) -> Tuple[Dict[Tuple[str, str], Value], int, int, bool]:
        """Parse one shard file: (entries, lines, corrupt, torn-tail)."""
        entries: Dict[Tuple[str, str], Value] = {}
        lines_total = 0
        corrupt = 0
        needs_newline = False
        try:
            handle = open(self._shard_path(shard), "r", encoding="utf-8")
        except FileNotFoundError:
            return entries, 0, 0, False
        with handle:
            for line in handle:
                needs_newline = not line.endswith("\n")
                stripped = line.strip()
                if not stripped:
                    # A doubly-repaired torn tail (two openers each
                    # appended the fix-up newline) reads as a blank
                    # line; tolerated, not counted as history.
                    continue
                lines_total += 1
                parsed = _parse_line(stripped)
                if parsed is None:
                    corrupt += 1
                    continue
                fingerprint, key, value = parsed
                entries[(fingerprint, key)] = value
        return entries, lines_total, corrupt, needs_newline

    def _fd_of(self, shard: int) -> int:
        """The shard's lazily-opened ``O_APPEND`` descriptor."""
        fd = self._fds.get(shard)
        if fd is None:
            fd = os.open(
                self._shard_path(shard),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._fds[shard] = fd
            if self._needs_newline.pop(shard, False):
                os.write(fd, b"\n")
        return fd

    def _evict(self, exclude: int) -> None:
        """Drop LRU shards until resident entries fit ``max_entries``.

        The just-touched shard (``exclude``) is always kept — evicting
        the shard a lookup is mid-flight on would thrash — so a single
        shard larger than the bound stays resident whole.
        """
        if self._max_entries is None:
            return
        while (
            self._resident_entries > self._max_entries
            and len(self._resident) > 1
        ):
            victim = next(iter(self._resident))
            if victim == exclude:
                break
            dropped = self._resident.pop(victim)
            self._resident_entries -= len(dropped)
            self.evictions += len(dropped)
            get_metrics().counter("store.evictions").inc(len(dropped))
            fd = self._fds.pop(victim, None)
            if fd is not None:
                os.close(fd)
            self._needs_newline.pop(victim, None)

    def _compact_shard(
        self, shard: int, entries: Dict[Tuple[str, str], Value]
    ) -> bool:
        """Rewrite a shard to live entries only.  True when it ran.

        Cooperative exclusion via an ``O_EXCL`` lock file: losers skip
        compaction (the shard stays readable either way).  A lock older
        than the grace period is presumed leaked by a killed compactor
        and is broken.
        """
        shard_path = self._shard_path(shard)
        lock_path = shard_path + ".lock"
        lock_fd = self._take_lock(lock_path)
        if lock_fd is None:
            return False
        try:
            stale = self._fds.pop(shard, None)
            if stale is not None:
                os.close(stale)
            tmp = f"{shard_path}.compact.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                for (fingerprint, key), value in entries.items():
                    handle.write(_line(fingerprint, key, value) + "\n")
            os.replace(tmp, shard_path)
            self.compactions += 1
            get_metrics().counter("store.compactions").inc()
            return True
        finally:
            os.close(lock_fd)
            try:
                os.unlink(lock_path)
            except OSError:
                pass

    @staticmethod
    def _take_lock(lock_path: str) -> Optional[int]:
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            return os.open(lock_path, flags)
        except FileExistsError:
            pass
        try:
            age = time.time() - os.path.getmtime(lock_path)
        except OSError:
            return None
        if age < _LOCK_GRACE_SECONDS:
            return None
        try:
            os.unlink(lock_path)
            return os.open(lock_path, flags)
        except (FileExistsError, OSError):
            return None

    def _ingest(self, entries: Dict[Tuple[str, str], Value]) -> None:
        """Append migrated v1 entries into their shards (batched)."""
        grouped: Dict[int, list] = {}
        for (fingerprint, key), value in entries.items():
            grouped.setdefault(self._shard_of_key(key), []).append(
                _line(fingerprint, key, value)
            )
        for shard, lines in grouped.items():
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            os.write(self._fd_of(shard), payload)
        self.migrated_entries = len(entries)
        if entries:
            get_metrics().counter("store.migrated_entries").inc(len(entries))


def open_store(
    path,
    shards: int = DEFAULT_SHARDS,
    max_entries: Optional[int] = None,
) -> ShardedPredicateStore:
    """Open (or create) the sharded predicate store at ``path``.

    A v1 single file at ``path`` is migrated into shards automatically.
    The store's ``lookup`` / ``record`` / ``close`` / context-manager
    interface is what
    :class:`~repro.reduction.predicate.InstrumentedPredicate` and the
    harness duck-type against.
    """
    return ShardedPredicateStore(path, shards=shards, max_entries=max_entries)

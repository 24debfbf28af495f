"""Tests for the persistent predicate store (JSONL round-trip, corruption).

Single-shard stores keep every record in one file, ``shard-000.jsonl``,
so the on-disk checks below read exactly one file.
"""

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import ShardedPredicateStore, fingerprint_of, key_of
from repro.parallel.store import KeyMemo
from repro.reduction.predicate import InstrumentedPredicate


def _store(path):
    return ShardedPredicateStore(path, shards=1)


def _shard(path):
    return path / "shard-000.jsonl"


class TestKeying:
    def test_key_is_order_independent(self):
        assert key_of(["b", "a"]) == key_of(
            ["a", "b"]
        )

    def test_key_distinguishes_sets(self):
        assert key_of(["a"]) != key_of(
            ["a", "b"]
        )

    def test_key_survives_separator_in_item(self):
        # Regression: the old scheme joined str() renderings with
        # "\x1f", so one item containing the separator collided with
        # the two-item set it split into.
        assert key_of(["a\x1fb"]) != key_of(
            ["a", "b"]
        )

    def test_key_distinguishes_item_types(self):
        # Regression: str() rendered 1 and "1" identically; repr keeps
        # them apart.
        assert key_of([1]) != key_of(["1"])

    def test_key_length_prefix_is_injective(self):
        # Adjacent renderings must not re-associate: {"1:", "x"} vs
        # {"1", ":x"} concatenate alike without length prefixes.
        assert key_of(["1:", "x"]) != key_of(
            ["1", ":x"]
        )

    def test_key_memo_keys_like_key_of(self):
        memo = KeyMemo()
        for items in (["1:", "x"], ["1", ":x"], [1, "1"], ["12:ab", "2:a"]):
            assert memo(items) == key_of(items)

    @given(st.lists(st.frozensets(
        st.one_of(
            st.text(alphabet="0123456789:ab", max_size=6),
            st.integers(-20, 20),
            st.tuples(st.text(alphabet="1:", max_size=3), st.integers(0, 12)),
        ),
        max_size=8,
    ), min_size=1, max_size=6))
    def test_key_memo_matches_key_of(self, subsets):
        # One memo over several probes: later subsets reuse the
        # renderings earlier ones cached.
        memo = KeyMemo()
        for subset in subsets:
            assert memo(subset) == key_of(subset)

    def test_fingerprint_of_is_stable_and_part_sensitive(self):
        assert fingerprint_of("x", "y") == fingerprint_of("x", "y")
        assert fingerprint_of("x", "y") != fingerprint_of("xy")

    def test_fingerprint_of_part_boundaries(self):
        assert fingerprint_of("a:b") != fingerprint_of("a", "b")


class TestRoundTrip:
    def test_record_then_lookup(self, tmp_path):
        with _store(tmp_path / "s") as store:
            store.record("oracle", frozenset({"a", "b"}), True)
            store.record("oracle", frozenset({"a"}), False)
            assert store.lookup("oracle", frozenset({"b", "a"})) is True
            assert store.lookup("oracle", frozenset({"a"})) is False
            assert store.lookup("oracle", frozenset({"b"})) is None

    def test_fingerprints_namespace_entries(self, tmp_path):
        with _store(tmp_path / "s") as store:
            store.record("one", frozenset({"a"}), True)
            assert store.lookup("two", frozenset({"a"})) is None

    def test_survives_reload(self, tmp_path):
        path = tmp_path / "s"
        with _store(path) as store:
            store.record("oracle", frozenset({"a"}), True)
            store.record("oracle", frozenset({"b"}), False)
        with _store(path) as reloaded:
            assert reloaded.lookup("oracle", frozenset({"a"})) is True
            assert reloaded.lookup("oracle", frozenset({"b"})) is False
            assert len(reloaded) == 2

    def test_duplicate_records_write_once(self, tmp_path):
        path = tmp_path / "s"
        with _store(path) as store:
            for _ in range(5):
                store.record("oracle", frozenset({"a"}), True)
        assert len(_shard(path).read_text().splitlines()) == 1

    def test_missing_file_starts_empty(self, tmp_path):
        with _store(tmp_path / "new") as store:
            assert len(store) == 0
            assert store.corrupt_lines == 0


class TestCorruptionTolerance:
    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "s"
        with _store(path) as store:
            store.record("oracle", frozenset({"a"}), True)
            store.record("oracle", frozenset({"b"}), True)
        # Simulate a writer killed mid-append: chop the final line.
        text = _shard(path).read_text()
        _shard(path).write_text(text[: len(text) - 20])
        with _store(path) as reloaded:
            assert reloaded.lookup("oracle", frozenset({"a"})) is True
            assert reloaded.corrupt_lines == 1
            assert len(reloaded) == 1

    def test_garbage_lines_are_counted_not_fatal(self, tmp_path):
        path = tmp_path / "s"
        _store(path).close()
        _shard(path).write_text(
            "not json at all\n"
            + json.dumps({"f": "o", "k": key_of(["a"]),
                          "v": True})
            + "\n"
            + json.dumps({"missing": "keys"})
            + "\n"
        )
        with _store(path) as store:
            assert store.lookup("o", frozenset({"a"})) is True
            assert store.corrupt_lines == 2

    def test_appending_after_torn_line_recovers(self, tmp_path):
        path = tmp_path / "s"
        _store(path).close()
        _shard(path).write_text('{"f": "o", "k": "abc", "v": tr')  # torn
        with _store(path) as store:
            store.record("o", frozenset({"x"}), False)
        with _store(path) as reloaded:
            assert reloaded.lookup("o", frozenset({"x"})) is False


class TestLifecycle:
    def test_record_after_close_raises_clearly(self, tmp_path):
        store = _store(tmp_path / "s")
        store.close()
        # Regression: a late record() used to hand the None descriptor
        # to os.write and die with an opaque TypeError.
        with pytest.raises(ValueError, match="closed"):
            store.record("oracle", frozenset({"a"}), True)

    def test_close_is_idempotent(self, tmp_path):
        store = _store(tmp_path / "s")
        store.record("oracle", frozenset({"a"}), True)
        store.close()
        store.close()  # second close must not raise (or double-close the fd)
        assert store.closed

    def test_lookup_after_close_raises_clearly(self, tmp_path):
        store = _store(tmp_path / "s")
        store.record("oracle", frozenset({"a"}), True)
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.lookup("oracle", frozenset({"a"}))

    def test_context_manager_closes_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with _store(tmp_path / "s") as store:
                store.record("oracle", frozenset({"a"}), True)
                raise RuntimeError("mid-run crash")
        assert store.closed

    def test_concurrent_lookups_and_records_race_cleanly(self, tmp_path):
        # lookup() takes the store lock (it used to read the entry dict
        # bare while record() mutated it under the lock — safe only by
        # CPython-GIL accident).  Hammer both paths together and assert
        # every read returns a value that was actually written.
        store = _store(tmp_path / "s")
        stop = threading.Event()
        errors = []

        def writer():
            for i in range(300):
                store.record("oracle", frozenset({f"w-{i}"}), i % 2 == 0)

        def reader():
            while not stop.is_set():
                for i in range(0, 300, 7):
                    seen = store.lookup("oracle", frozenset({f"w-{i}"}))
                    if seen is not None and seen is not (i % 2 == 0):
                        errors.append((i, seen))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        store.close()
        assert not errors


class TestLastWriteWins:
    def test_conflicting_records_last_write_wins_in_memory(self, tmp_path):
        with _store(tmp_path / "s") as store:
            store.record("oracle", frozenset({"a"}), True)
            store.record("oracle", frozenset({"a"}), False)
            assert store.lookup("oracle", frozenset({"a"})) is False

    def test_conflicting_records_last_write_wins_across_reload(
        self, tmp_path
    ):
        path = tmp_path / "s"
        with _store(path) as store:
            store.record("oracle", frozenset({"a"}), True)
            store.record("oracle", frozenset({"a"}), False)
            store.record("oracle", frozenset({"a"}), True)
        # Three lines on disk; the loader must keep the latest.
        assert len(_shard(path).read_text().splitlines()) == 3
        with _store(path) as reloaded:
            assert reloaded.lookup("oracle", frozenset({"a"})) is True


class TestThreadSafety:
    def test_concurrent_records_all_land(self, tmp_path):
        path = tmp_path / "s"
        store = _store(path)

        def worker(tag):
            for i in range(50):
                store.record("oracle", frozenset({f"{tag}-{i}"}), i % 2 == 0)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()
        with _store(path) as reloaded:
            assert reloaded.lookup("oracle", frozenset({"3-4"})) is True
            assert reloaded.lookup("oracle", frozenset({"3-5"})) is False
            assert len(reloaded) == 8 * 50
            assert reloaded.corrupt_lines == 0


def _append_records(path, tag, count):
    """One appender process: write ``count`` records to a shared store.

    Module-level so the spawn start method can pickle it by reference.
    """
    with ShardedPredicateStore(path, shards=1) as store:
        for i in range(count):
            store.record("oracle", frozenset({f"{tag}-{i}"}), i % 2 == 0)


class TestMultiProcessAppends:
    """Regression: a buffered text handle could flush one logical line
    as two OS writes, letting a concurrent process's record land
    mid-line and tear both.  Single ``os.write`` calls on an
    ``O_APPEND`` fd are atomic, so whole lines always interleave."""

    def test_concurrent_appender_processes_never_tear_lines(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "shared")
        spawn = multiprocessing.get_context("spawn")
        workers, per_worker = 4, 100
        processes = [
            spawn.Process(target=_append_records, args=(path, tag, per_worker))
            for tag in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        with ShardedPredicateStore(path) as reloaded:
            for tag in range(workers):
                assert reloaded.lookup(
                    "oracle", frozenset({f"{tag}-0"})
                ) is True
                assert reloaded.lookup(
                    "oracle", frozenset({f"{tag}-{per_worker - 1}"})
                ) is False
            assert reloaded.corrupt_lines == 0
            assert len(reloaded) == workers * per_worker

    def test_every_line_is_whole_json(self, tmp_path):
        import multiprocessing

        path = tmp_path / "shared"
        spawn = multiprocessing.get_context("spawn")
        processes = [
            spawn.Process(target=_append_records, args=(str(path), tag, 50))
            for tag in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        with open(_shard(path), "r", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)  # any tear would explode here
                assert set(entry) == {"f", "k", "v"}


def _append_conflicting(path, tag, keys, barrier):
    """One appender process: record conflicting outcomes for shared keys."""
    from repro.parallel import ShardedPredicateStore

    barrier.wait()
    with ShardedPredicateStore(path, shards=1) as store:
        for i in range(keys):
            store.record("oracle", frozenset({f"k-{i}"}), tag % 2 == 0)


def _open_torn_and_append(path, tag, barrier):
    """Open a torn shard (racing another opener) and append records."""
    from repro.parallel import ShardedPredicateStore

    barrier.wait()
    with ShardedPredicateStore(path, shards=1) as store:
        for i in range(20):
            store.record("oracle", frozenset({f"{tag}-{i}"}), True)


class TestMultiProcessConflicts:
    """Concurrent appenders to the *same shard* with conflicting
    outcomes: every record lands whole (O_APPEND atomicity), and a
    reload resolves each key to the shard file's last line for it —
    last write wins, deterministically derivable from the file."""

    def test_same_shard_conflicting_appenders(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "store")
        spawn = multiprocessing.get_context("spawn")
        workers, keys = 4, 25
        barrier = spawn.Barrier(workers)
        processes = [
            spawn.Process(
                target=_append_conflicting, args=(path, tag, keys, barrier)
            )
            for tag in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        # Derive the expected winners straight from the shard file.
        shard = f"{path}/shard-000.jsonl"
        last_line_value = {}
        with open(shard, "r", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)  # any tear would explode here
                last_line_value[(entry["f"], entry["k"])] = entry["v"]

        from repro.parallel import ShardedPredicateStore

        with ShardedPredicateStore(path) as reloaded:
            assert reloaded.corrupt_lines == 0
            for i in range(keys):
                sub_input = frozenset({f"k-{i}"})
                key = ("oracle", key_of(sub_input))
                assert reloaded.lookup("oracle", sub_input) is bool(
                    last_line_value[key]
                )

    def test_two_openers_of_a_torn_shard_both_repair(self, tmp_path):
        import multiprocessing

        path = tmp_path / "store"
        from repro.parallel import ShardedPredicateStore

        with ShardedPredicateStore(path, shards=1) as seed:
            seed.record("oracle", frozenset({"seed"}), True)
        shard = path / "shard-000.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"f": "oracle", "k": "abc", "v": tr')  # torn tail

        spawn = multiprocessing.get_context("spawn")
        barrier = spawn.Barrier(2)
        processes = [
            spawn.Process(
                target=_open_torn_and_append, args=(str(path), tag, barrier)
            )
            for tag in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        with ShardedPredicateStore(path) as reloaded:
            # Exactly one corrupt line (the torn tail); the double "\n"
            # repair — both openers may have appended one — must read as
            # a tolerated blank line, not a second corruption.
            assert reloaded.lookup("oracle", frozenset({"seed"})) is True
            assert reloaded.corrupt_lines == 1
            for tag in range(2):
                for i in range(20):
                    assert reloaded.lookup(
                        "oracle", frozenset({f"{tag}-{i}"})
                    ) is True

    def test_double_newline_repair_is_tolerated_deterministically(
        self, tmp_path
    ):
        # The in-process rendering of the race above: a torn tail plus
        # *two* repair newlines (one per simultaneous opener).
        from repro.parallel import ShardedPredicateStore

        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=1) as seed:
            seed.record("oracle", frozenset({"seed"}), True)
        shard = path / "shard-000.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"f": "oracle", "k": "abc", "v": tr')
        with ShardedPredicateStore(path) as first:
            first.record("oracle", frozenset({"x"}), False)
        with open(shard, "r+", encoding="utf-8") as handle:
            text = handle.read()
            torn = '"k": "abc", "v": tr'
            torn_end = text.index(torn) + len(torn)
            handle.seek(torn_end)
            rest = text[torn_end:]
            handle.write("\n" + rest)  # the second opener's repair
        with ShardedPredicateStore(path) as reloaded:
            assert reloaded.lookup("oracle", frozenset({"seed"})) is True
            assert reloaded.lookup("oracle", frozenset({"x"})) is False
            assert reloaded.corrupt_lines == 1


class TestPredicateIntegration:
    def test_wrapper_requires_fingerprint_with_store(self, tmp_path):
        with _store(tmp_path / "s") as store:
            with pytest.raises(ValueError):
                InstrumentedPredicate(lambda s: True, store=store)

    def test_read_through_and_write_back(self, tmp_path):
        calls = []

        def raw(sub_input):
            calls.append(sub_input)
            return "x" in sub_input

        with _store(tmp_path / "s") as store:
            first = InstrumentedPredicate(raw, store=store, fingerprint="fp")
            assert first(frozenset({"x", "y"})) is True
            assert first(frozenset({"y"})) is False
            assert first.calls == 2

            # A fresh wrapper (empty memory cache) answers from the store.
            second = InstrumentedPredicate(raw, store=store, fingerprint="fp")
            assert second(frozenset({"y", "x"})) is True
            assert second(frozenset({"y"})) is False
            assert second.calls == 0
            assert second.store_hits == 2
            assert len(calls) == 2

    def test_store_hit_still_updates_best_and_timeline(self, tmp_path):
        with _store(tmp_path / "s") as store:
            warmer = InstrumentedPredicate(
                lambda s: True, store=store, fingerprint="fp"
            )
            warmer(frozenset({"a"}))
            reader = InstrumentedPredicate(
                lambda s: True, store=store, fingerprint="fp"
            )
            assert reader(frozenset({"a"})) is True
            assert reader.best_size == 1
            assert len(reader.timeline) == 1

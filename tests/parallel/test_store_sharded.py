"""The sharded cache tier: layout, eviction, compaction, the refusal
of a file at the store path, and the differential guarantee that a
store behind a reduction — cold or warm — never changes its result.
"""

import json
import os
import re
import sqlite3

import pytest

from repro.harness.experiments import (
    ExperimentConfig,
    oracle_fingerprint,
    probe_pool,
    run_instance,
)
from repro.observability.metrics import MetricsRegistry, scoped_metrics
from repro.parallel import (
    DEFAULT_SHARDS,
    ShardedPredicateStore,
    key_of,
    open_store,
)
from repro.workloads.corpus import CorpusConfig, build_corpus


def _fill(store, count, fingerprint="oracle"):
    for i in range(count):
        store.record(fingerprint, frozenset({f"k-{i}"}), i % 3 == 0)


class TestLayout:
    def test_creates_manifest_and_shard_files_lazily(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=4) as store:
            manifest = json.loads((path / "store.json").read_text())
            assert manifest["shards"] == 4
            assert manifest["backend"] == "jsonl"
            _fill(store, 10)
        shard_files = sorted(p.name for p in path.glob("shard-*.jsonl"))
        # Only shards that received a record exist on disk.
        assert 0 < len(shard_files) <= 4

    def test_manifest_wins_over_constructor_shards(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=4) as store:
            _fill(store, 40)
        with ShardedPredicateStore(path) as reopened:  # default 16
            assert reopened.shards == 4
            for i in range(40):
                assert reopened.lookup(
                    "oracle", frozenset({f"k-{i}"})
                ) is (i % 3 == 0)

    def test_key_routing_is_stable(self, tmp_path):
        with ShardedPredicateStore(tmp_path / "store", shards=8) as store:
            key = store.key_of(frozenset({"a", "b"}))
            assert store._shard_of_key(key) == int(key[:8], 16) % 8

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedPredicateStore(tmp_path / "s", shards=0)
        with pytest.raises(ValueError):
            ShardedPredicateStore(tmp_path / "s", max_entries=0)
        with pytest.raises(ValueError):
            ShardedPredicateStore(tmp_path / "s", compact_ratio=0.0)


class TestLazyLoading:
    def test_open_reads_no_shards(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=8) as store:
            _fill(store, 200)
        with ShardedPredicateStore(path) as reopened:
            assert reopened.shard_loads == 0
            assert len(reopened) == 0  # nothing resident yet

    def test_lookup_faults_only_the_owning_shard(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=8) as store:
            _fill(store, 200)
        with ShardedPredicateStore(path) as reopened:
            assert reopened.lookup(
                "oracle", frozenset({"k-0"})
            ) is True
            assert reopened.shard_loads == 1
            # A key on the same shard costs no further load.
            key0 = reopened.key_of(frozenset({"k-0"}))
            same_shard = reopened._shard_of_key(key0)
            for i in range(1, 200):
                key = reopened.key_of(frozenset({f"k-{i}"}))
                if reopened._shard_of_key(key) == same_shard:
                    reopened.lookup("oracle", frozenset({f"k-{i}"}))
                    assert reopened.shard_loads == 1
                    break

    def test_missing_key_does_not_create_shard_file(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=4) as store:
            assert store.lookup("oracle", frozenset({"nope"})) is None
        assert list(path.glob("shard-*.jsonl")) == []


class TestEviction:
    def test_eviction_never_loses_outcomes(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(
            path, shards=8, max_entries=10
        ) as store:
            _fill(store, 120)
            assert store.evictions > 0
            assert len(store) <= 120  # resident subset only
            for i in range(120):  # evicted shards refault from disk
                assert store.lookup(
                    "oracle", frozenset({f"k-{i}"})
                ) is (i % 3 == 0)

    def test_eviction_counter_flows_to_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with scoped_metrics(registry):
            with ShardedPredicateStore(
                tmp_path / "store", shards=8, max_entries=5
            ) as store:
                _fill(store, 80)
        values = registry.counter_values()
        assert values["store.records"] == 80
        assert values["store.evictions"] >= 1

    def test_hot_shard_larger_than_budget_stays_usable(self, tmp_path):
        # A single shard can exceed max_entries; the last resident shard
        # is never evicted, so lookups keep working.
        with ShardedPredicateStore(
            tmp_path / "store", shards=1, max_entries=3
        ) as store:
            _fill(store, 50)
            for i in range(50):
                assert store.lookup(
                    "oracle", frozenset({f"k-{i}"})
                ) is (i % 3 == 0)


class TestCompaction:
    def test_reload_compacts_duplicate_heavy_shard(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(
            path, shards=1, compact_min_lines=64
        ) as store:
            for i in range(300):  # same key over and over
                store.record("oracle", frozenset({"dup"}), i % 2 == 0)
        shard = path / "shard-000.jsonl"
        assert len(shard.read_text().splitlines()) == 300
        with ShardedPredicateStore(path) as reopened:
            # Last write wins: i=299 -> False.
            assert reopened.lookup("oracle", frozenset({"dup"})) is False
            assert reopened.compactions == 1
        assert len(shard.read_text().splitlines()) == 1
        entry = json.loads(shard.read_text())
        assert entry["v"] is False

    def test_small_shards_are_left_alone(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=1) as store:
            for i in range(40):  # conflicts, but < compact_min_lines
                store.record("oracle", frozenset({"dup"}), i % 2 == 0)
        with ShardedPredicateStore(path) as reopened:
            assert reopened.lookup("oracle", frozenset({"dup"})) is False
            assert reopened.compactions == 0
        shard = path / "shard-000.jsonl"
        assert len(shard.read_text().splitlines()) == 40

    def test_held_lock_skips_compaction_without_data_loss(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(
            path, shards=1, compact_min_lines=64
        ) as store:
            for i in range(300):
                store.record("oracle", frozenset({"dup"}), i % 2 == 0)
        lock = path / "shard-000.jsonl.lock"
        lock.write_text("held by another process")
        with ShardedPredicateStore(path) as reopened:
            assert reopened.lookup("oracle", frozenset({"dup"})) is False
            assert reopened.compactions == 0
        # File untouched while the lock is held.
        shard = path / "shard-000.jsonl"
        assert len(shard.read_text().splitlines()) == 300

    def test_stale_lock_is_broken(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(
            path, shards=1, compact_min_lines=64
        ) as store:
            for i in range(300):
                store.record("oracle", frozenset({"dup"}), i % 2 == 0)
        lock = path / "shard-000.jsonl.lock"
        lock.write_text("crashed compactor")
        stale = lock.stat().st_mtime - 3600
        os.utime(lock, (stale, stale))
        with ShardedPredicateStore(path) as reopened:
            reopened.lookup("oracle", frozenset({"dup"}))
            assert reopened.compactions == 1


class TestMigration:
    """A store is a directory: a file at its path is outside input, not
    a store to migrate, and is refused and left as it was."""

    def _assert_refused_unchanged(self, path):
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            open_store(path)
        assert path.is_file()
        assert path.read_bytes() == before
        assert sorted(path.parent.iterdir()) == [path]

    def test_sqlite_file_refused_by_sharded_backend(self, tmp_path):
        path = tmp_path / "outcomes.db"
        conn = sqlite3.connect(path)
        try:
            conn.execute("CREATE TABLE outcomes (f TEXT, k TEXT, v INT)")
            conn.commit()
        finally:
            conn.close()
        self._assert_refused_unchanged(path)

    def test_jsonl_file_refused_unchanged(self, tmp_path):
        # The old single-file format: one JSONL file of {"f", "k", "v"}.
        path = tmp_path / "outcomes.jsonl"
        path.write_text(json.dumps({
            "f": "oracle", "k": key_of(frozenset({"a"})), "v": True,
        }) + "\n")
        self._assert_refused_unchanged(path)


class TestRecords:
    """Opaque records (compiled problems) ride the verdict shards."""

    PAYLOAD = '[3,[[1,-2],[3]],[0,1,2],[2,0,1]]'
    KEY = "ab" * 32

    def test_records_move_no_verdict_counter(self, tmp_path):
        registry = MetricsRegistry()
        with scoped_metrics(registry), ShardedPredicateStore(
            tmp_path / "store"
        ) as store:
            assert store.lookup_record("problem:x", self.KEY) is None
            store.put_record("problem:x", self.KEY, self.PAYLOAD)
            assert store.lookup_record("problem:x", self.KEY) == self.PAYLOAD
            # A verdict lookup never serves a record, nor the reverse.
            assert store.lookup("problem:x", frozenset(), key=self.KEY) is None
            store.record("oracle", frozenset({"a"}), True)
            assert store.lookup_record(
                "oracle", key_of(frozenset({"a"}))
            ) is None
        counters = registry.counter_values()
        assert counters["store.lookups"] == 1
        assert counters["store.misses"] == 1
        assert counters["store.records"] == 1
        assert "store.hits" not in counters

    def test_compaction_carries_records_unchanged(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(
            path, shards=1, compact_min_lines=64
        ) as store:
            store.put_record("problem:x", self.KEY, self.PAYLOAD)
            for i in range(300):
                store.record("oracle", frozenset({"dup"}), i % 2 == 0)
        with ShardedPredicateStore(path) as reopened:
            assert reopened.lookup_record("problem:x", self.KEY) == (
                self.PAYLOAD
            )
            assert reopened.compactions == 1
        lines = (path / "shard-000.jsonl").read_text().splitlines()
        assert len(lines) == 2
        with ShardedPredicateStore(path) as again:
            assert again.lookup_record("problem:x", self.KEY) == self.PAYLOAD

    def test_torn_record_line_is_dropped(self, tmp_path):
        path = tmp_path / "store"
        with ShardedPredicateStore(path, shards=1) as store:
            store.put_record("problem:x", self.KEY, self.PAYLOAD)
        shard = path / "shard-000.jsonl"
        shard.write_text(shard.read_text()[:-9])  # killed mid-append
        with ShardedPredicateStore(path) as reopened:
            assert reopened.lookup_record("problem:x", self.KEY) is None
            assert reopened.corrupt_lines == 1
            reopened.put_record("problem:x", self.KEY, self.PAYLOAD)
        with ShardedPredicateStore(path) as repaired:
            assert repaired.lookup_record("problem:x", self.KEY) == (
                self.PAYLOAD
            )


class TestOpenStoreFactory:
    def test_dispatch(self, tmp_path):
        with open_store(tmp_path / "a") as store:
            assert isinstance(store, ShardedPredicateStore)
            assert store.shards == DEFAULT_SHARDS

    def test_options_forwarded(self, tmp_path):
        with open_store(tmp_path / "a", shards=3, max_entries=7) as store:
            assert store.shards == 3
            assert store.max_entries == 7


class TestTenantNamespace:
    def test_tenants_do_not_cross_hit(self, tmp_path):
        corpus = build_corpus(
            CorpusConfig(num_benchmarks=1, min_classes=8, max_classes=10)
        )
        app = corpus[0].app
        fp_a = oracle_fingerprint(app, "alpha", "item", tenant="team-a")
        fp_b = oracle_fingerprint(app, "alpha", "item", tenant="team-b")
        fp_default = oracle_fingerprint(app, "alpha", "item")
        assert fp_a != fp_b != fp_default
        assert fp_a.startswith("tenant=team-a:")
        assert not fp_default.startswith("tenant=")
        with ShardedPredicateStore(tmp_path / "store") as store:
            store.record(fp_a, frozenset({"x"}), True)
            assert store.lookup(fp_a, frozenset({"x"})) is True
            assert store.lookup(fp_b, frozenset({"x"})) is None
            assert store.lookup(fp_default, frozenset({"x"})) is None

    def test_same_tenant_warm_across_runs(self, tmp_path):
        corpus = build_corpus(
            CorpusConfig(num_benchmarks=1, min_classes=8, max_classes=10)
        )
        benchmark = corpus[0]
        instance = benchmark.instances[0]
        config = ExperimentConfig(tenant="team-a")
        with ShardedPredicateStore(tmp_path / "store") as store:
            cold = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
            warm = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
            other = run_instance(
                benchmark,
                instance,
                "our-reducer",
                ExperimentConfig(tenant="team-b"),
                store,
            )
        assert cold.predicate_calls > 0
        assert warm.predicate_calls == 0
        assert other.predicate_calls == cold.predicate_calls
        assert warm.final_bytes == cold.final_bytes == other.final_bytes


def _comparable(outcome):
    return (
        outcome.final_bytes,
        outcome.final_classes,
        outcome.predicate_calls,
        outcome.simulated_seconds,
        outcome.status,
        tuple(outcome.timeline),
    )


class TestDifferentialBackends:
    """Byte-identical reduction results with no store, a cold store, and
    a warm one, across sequential, speculative-thread, and
    speculative-process probe configurations (acceptance criterion of
    the cache tier)."""

    @pytest.mark.parametrize(
        "probe_config",
        [
            {"speculate": 1},
            {"speculate": 2, "probe_backend": "thread"},
            {"speculate": 2, "probe_backend": "process"},
        ],
        ids=["sequential", "thread", "process"],
    )
    def test_backends_agree_cold_and_warm(self, tmp_path, probe_config):
        corpus = build_corpus(
            CorpusConfig(num_benchmarks=1, min_classes=12, max_classes=18)
        )
        benchmark = corpus[0]
        instance = benchmark.instances[0]
        config = ExperimentConfig(**probe_config)
        pool = probe_pool(config)

        def run(store):
            return run_instance(
                benchmark, instance, "our-reducer", config, store,
                probe_executor=pool,
            )

        try:
            storeless = run(None)
            path = tmp_path / "store"
            with open_store(path) as store:
                cold = run(store)
            # Reopen: the warm run must replay entirely from disk.
            with open_store(path) as store:
                warm = run(store)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

        baseline = _comparable(storeless)
        assert _comparable(cold) == baseline
        assert baseline[4] == "complete"
        assert warm.predicate_calls == 0
        assert warm.final_bytes == baseline[0]
        assert warm.final_classes == baseline[1]

"""Tests for the corpus builder."""

from repro.workloads.corpus import (
    Benchmark,
    CorpusConfig,
    all_instances,
    build_corpus,
)


class TestBuildCorpus:
    def test_deterministic(self):
        config = CorpusConfig(num_benchmarks=3, min_classes=10, max_classes=20)
        first = build_corpus(config)
        second = build_corpus(config)
        assert [b.seed for b in first] == [b.seed for b in second]
        assert [b.app for b in first] == [b.app for b in second]

    def test_sizes_within_bounds(self):
        config = CorpusConfig(num_benchmarks=4, min_classes=10, max_classes=24)
        for benchmark in build_corpus(config):
            # classes + interfaces + Main; interfaces scale with classes.
            assert benchmark.num_classes >= 10

    def test_instances_are_buggy(self):
        config = CorpusConfig(num_benchmarks=4, min_classes=16, max_classes=40)
        corpus = build_corpus(config)
        for benchmark, instance in all_instances(corpus):
            assert instance.oracle.is_buggy
            assert instance.num_errors >= 1

    def test_small_profile_is_fast_shaped(self):
        config = CorpusConfig.small()
        assert config.num_benchmarks <= 8
        assert config.max_classes <= 80

    def test_paper_profile_matches_scale(self):
        config = CorpusConfig.paper()
        assert config.num_benchmarks == 96
        # geo-mean of a log-uniform on [a, b] is sqrt(a*b) ~ 180.
        assert 150 <= (config.min_classes * config.max_classes) ** 0.5 <= 220

    def test_ids_unique(self):
        corpus = build_corpus(CorpusConfig(num_benchmarks=5, min_classes=8,
                                           max_classes=16))
        ids = [b.benchmark_id for b in corpus]
        assert len(ids) == len(set(ids))


class TestNjrProfile:
    def test_profile_shape(self):
        config = CorpusConfig.njr()
        assert config.num_benchmarks == 1000
        # geo-mean of the log-uniform class range ~ the paper's 184.
        assert 170 <= (config.min_classes * config.max_classes) ** 0.5 <= 200

    def test_distributional_fidelity_smoke(self):
        """Small-N geo-means land near the paper's Table 1 statistics.

        Deterministic (id-keyed seeds) — 6 samples, loose tolerance;
        ``benchmarks/bench_table_statistics.py::test_njr_table1_fidelity``
        runs the full-tolerance check.
        """
        import math
        import statistics

        from repro.bytecode.constraints import generate_constraints
        from repro.bytecode.items import items_of
        from repro.bytecode.metrics import application_size_bytes
        from repro.workloads.corpus import (
            PAPER_GEO_BYTES,
            PAPER_GEO_CLASSES,
            PAPER_GEO_CLAUSES,
            PAPER_GEO_ITEMS,
            build_benchmark,
        )

        config = CorpusConfig.njr()
        classes, sizes, items, clauses = [], [], [], []
        for index in range(6):
            app = build_benchmark(index, config).app
            classes.append(len(app.classes))
            sizes.append(application_size_bytes(app))
            items.append(len(items_of(app)))
            clauses.append(len(generate_constraints(app).clauses))

        def geo(values):
            return math.exp(statistics.mean(math.log(v) for v in values))

        for measured, target in (
            (geo(classes), PAPER_GEO_CLASSES),
            (geo(sizes), PAPER_GEO_BYTES),
            (geo(items), PAPER_GEO_ITEMS),
            (geo(clauses), PAPER_GEO_CLAUSES),
        ):
            assert abs(measured / target - 1.0) <= 0.25


class TestPersistence:
    def tiny(self):
        return CorpusConfig(
            num_benchmarks=2,
            min_classes=8,
            max_classes=14,
            decompilers=("alpha", "beta"),
        )

    def test_round_trip_preserves_apps_and_instances(self, tmp_path):
        from repro.workloads.corpus import iter_saved_corpus, save_corpus

        config = self.tiny()
        original = build_corpus(config)
        save_corpus(original, str(tmp_path / "corpus"))
        loaded = list(iter_saved_corpus(str(tmp_path / "corpus")))
        assert [b.benchmark_id for b in loaded] == [
            b.benchmark_id for b in original
        ]
        assert [b.app for b in loaded] == [b.app for b in original]
        for old, new in zip(original, loaded):
            assert [i.decompiler for i in new.instances] == [
                i.decompiler for i in old.instances
            ]
            assert [i.num_errors for i in new.instances] == [
                i.num_errors for i in old.instances
            ]

    def test_manifest_carries_distributional_stats(self, tmp_path):
        from repro.bytecode.metrics import application_size_bytes
        from repro.workloads.corpus import load_manifest, save_corpus

        config = self.tiny()
        corpus = build_corpus(config)
        save_corpus(corpus, str(tmp_path / "corpus"))
        manifest = load_manifest(str(tmp_path / "corpus"))
        entries = manifest["benchmarks"]
        assert len(entries) == len(corpus)
        for benchmark, entry in zip(corpus, entries):
            assert entry["classes"] == len(benchmark.app.classes)
            assert entry["bytes"] == application_size_bytes(benchmark.app)
            assert entry["items"] > 0
            assert entry["clauses"] > 0

    def test_loaded_oracles_lazy_but_equivalent(self, tmp_path):
        from repro.workloads.corpus import iter_saved_corpus, save_corpus

        config = self.tiny()
        original = build_corpus(config)
        save_corpus(original, str(tmp_path / "corpus"))
        loaded = list(iter_saved_corpus(str(tmp_path / "corpus")))
        old = original[0].instances[0]
        new = loaded[0].instances[0]
        assert new.oracle.original_errors == old.oracle.original_errors

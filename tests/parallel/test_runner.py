"""Tests for the corpus runner at jobs > 1: determinism and cache reuse.

:func:`repro.parallel.scheduler.run_scheduled_corpus_experiment` is
the corpus executor; ``jobs=2`` runs whole instances on worker processes.
"""

import dataclasses

import pytest

import repro.harness.experiments as experiments
from repro.harness import ExperimentConfig, run_instance
from repro.parallel import open_store, resolve_jobs
from repro.parallel.scheduler import run_scheduled_corpus_experiment
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=2, min_classes=10, max_classes=18)
    )


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(strategies=("our-reducer", "jreduce"))


def comparable(outcome):
    """Everything except host-dependent wall time."""
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    return fields


class TestResolveJobs:
    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestSerialParallelEquality:
    def test_outcomes_identical_except_real_seconds(self, tiny_corpus, config):
        serial = run_scheduled_corpus_experiment(tiny_corpus, config)
        parallel = run_scheduled_corpus_experiment(tiny_corpus, config, jobs=2)
        assert len(serial) == len(parallel)
        for expected, actual in zip(serial, parallel):
            assert comparable(expected) == comparable(actual)

    def test_parallel_progress_lines_in_serial_order(
        self, tiny_corpus, config
    ):
        serial_lines, parallel_lines = [], []
        run_scheduled_corpus_experiment(
            tiny_corpus, config, progress=serial_lines.append
        )
        run_scheduled_corpus_experiment(
            tiny_corpus, config, progress=parallel_lines.append, jobs=2
        )
        assert serial_lines == parallel_lines

    def test_jobs_kwarg_none_uses_all_cpus(self, tiny_corpus, config):
        outcomes = run_scheduled_corpus_experiment(
            tiny_corpus, config, jobs=None
        )
        assert len(outcomes) == len(
            run_scheduled_corpus_experiment(tiny_corpus, config)
        )


class TestPersistentStoreReuse:
    def test_warm_store_run_costs_zero_fresh_calls(
        self, tiny_corpus, config, tmp_path
    ):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        with open_store(tmp_path / "store") as store:
            cold = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
            warm = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
        assert cold.predicate_calls > 0
        assert warm.predicate_calls == 0
        assert warm.metrics["predicate.cache_hit_rate"] == 1.0
        # The reduction itself is unchanged — only the cost vanishes.
        assert warm.final_bytes == cold.final_bytes
        assert warm.final_classes == cold.final_classes
        assert warm.simulated_seconds == 0.0

    def test_store_survives_process_boundary(
        self, tiny_corpus, config, tmp_path
    ):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        path = tmp_path / "store"
        with open_store(path) as store:
            run_instance(benchmark, instance, "jreduce", config, store)
        with open_store(path) as reloaded:  # simulates a new process
            warm = run_instance(
                benchmark, instance, "jreduce", config, reloaded
            )
        assert warm.predicate_calls == 0

    def test_granularities_do_not_share_entries(
        self, tiny_corpus, config, tmp_path
    ):
        # our-reducer (item granularity) must not poison jreduce (class
        # granularity) even though both run on the same oracle.
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        with open_store(tmp_path / "store") as store:
            run_instance(benchmark, instance, "our-reducer", config, store)
            jreduce = run_instance(
                benchmark, instance, "jreduce", config, store
            )
        assert jreduce.predicate_calls > 0

    def test_parallel_run_with_shared_store(self, tiny_corpus, config,
                                            tmp_path):
        # Workers reopen the live handle's store from its recipe.
        with open_store(tmp_path / "store") as store:
            first = run_scheduled_corpus_experiment(
                tiny_corpus, config, jobs=2, store=store
            )
            second = run_scheduled_corpus_experiment(
                tiny_corpus, config, jobs=2, store=store
            )
        assert all(o.predicate_calls == 0 for o in second)
        for cold, warm in zip(first, second):
            assert warm.final_bytes == cold.final_bytes


class TestGracefulDegradation:
    """A crashing instance run must not take the bench down (with
    keep_going).  The failure is injected in-process, into the strategy
    body that ``run_instance`` guards, so these run inline
    (``jobs=1``); ``test_scheduler.TestChaosLane`` covers failures
    relayed from worker processes."""

    @staticmethod
    def _crash_one(target_benchmark, target_strategy):
        real_inner = experiments._run_instance_inner

        def flaky_inner(benchmark, instance, strategy, *args):
            if (
                benchmark.benchmark_id == target_benchmark
                and strategy == target_strategy
            ):
                raise RuntimeError("worker exploded")
            return real_inner(benchmark, instance, strategy, *args)

        return flaky_inner

    def test_injected_worker_exception_degrades_in_place(
        self, tiny_corpus, monkeypatch
    ):
        target = tiny_corpus[0].benchmark_id
        monkeypatch.setattr(
            experiments,
            "_run_instance_inner",
            self._crash_one(target, "jreduce"),
        )
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"), keep_going=True
        )
        outcomes = run_scheduled_corpus_experiment(tiny_corpus, config)
        expected_count = sum(len(b.instances) * 2 for b in tiny_corpus)
        assert len(outcomes) == expected_count
        # Error outcomes sit exactly where the serial order puts them.
        for i, outcome in enumerate(outcomes):
            serial_slot = (
                outcome.benchmark_id == target
                and outcome.strategy == "jreduce"
            )
            assert (outcome.status == "error") == serial_slot, i
        errored = [o for o in outcomes if o.status == "error"]
        assert all("worker exploded" in o.error for o in errored)
        # The rest of the corpus completed normally.
        assert all(
            o.error is None and o.predicate_calls > 0
            for o in outcomes
            if o.status == "complete"
        )

    def test_without_keep_going_the_exception_propagates(
        self, tiny_corpus, monkeypatch
    ):
        monkeypatch.setattr(
            experiments,
            "_run_instance_inner",
            self._crash_one(tiny_corpus[0].benchmark_id, "jreduce"),
        )
        config = ExperimentConfig(strategies=("our-reducer", "jreduce"))
        with pytest.raises(RuntimeError, match="worker exploded"):
            run_scheduled_corpus_experiment(tiny_corpus, config)


class TestConcurrentTelemetryIsolation:
    def test_parallel_metrics_match_serial(self, tiny_corpus, config):
        """Per-run metrics must not leak across concurrent reductions."""
        serial = run_scheduled_corpus_experiment(tiny_corpus, config)
        parallel = run_scheduled_corpus_experiment(tiny_corpus, config, jobs=2)
        for expected, actual in zip(serial, parallel):
            assert expected.metrics == actual.metrics
            assert (
                actual.metrics.get("predicate.calls", 0)
                == actual.predicate_calls
            )

    def test_scoped_attribution_under_jobs_and_speculation(self, tiny_corpus):
        """``scoped_metrics()`` attribution with --jobs 2 --speculate 4.

        Two layers of concurrency at once: two corpus workers, each
        fanning probe batches onto its own speculation pool.  Batch
        results commit on the issuing thread, so each instance's scoped
        registry must see exactly its own probes — comparing against a
        fully serial run catches any cross-contamination.
        """
        serial_config = ExperimentConfig(
            strategies=("our-reducer",), speculate=1
        )
        spec_config = ExperimentConfig(
            strategies=("our-reducer",), speculate=4
        )
        serial = run_scheduled_corpus_experiment(tiny_corpus, serial_config)
        concurrent = run_scheduled_corpus_experiment(
            tiny_corpus, spec_config, jobs=2
        )
        assert len(serial) == len(concurrent)
        for expected, actual in zip(serial, concurrent):
            assert actual.benchmark_id == expected.benchmark_id
            # Speculation may probe *more* (wasted speculative calls)
            # but attribution must stay per-instance and self-consistent.
            assert (
                actual.metrics.get("predicate.calls", 0)
                == actual.predicate_calls
            )
            assert actual.predicate_calls >= expected.predicate_calls
            # The reduction result itself is unchanged by concurrency.
            assert actual.final_bytes == expected.final_bytes
            assert actual.final_classes == expected.final_classes
        total_calls = sum(o.predicate_calls for o in concurrent)
        per_instance = [
            o.metrics.get("predicate.calls", 0) for o in concurrent
        ]
        assert sum(per_instance) == total_calls

"""Tests for the process-parallel corpus scheduler.

The load-bearing property is *serial-order commit determinism*: however
instances fan out across worker processes (and however the
longest-job-first dispatcher reorders submission), the committed
outcome stream must match a ``jobs=1`` run on every semantic field.
``outcome_signature`` is the comparison key — everything except
``real_seconds`` and the placement-dependent store residency counters,
which legitimately differ when shard LRU state lives in different
processes.
"""

import dataclasses
import json

import pytest

from repro.harness.experiments import (
    ExperimentConfig,
    outcome_signature,
    probe_cap_for,
    run_corpus_experiment,
)
from repro.parallel.scheduler import (
    StoreSpec,
    WorkerBudget,
    load_cost_hints,
    run_scheduled_corpus_experiment,
)
from repro.resilience import FaultPlan, OracleCrash
from repro.workloads.corpus import CorpusConfig, build_corpus, save_corpus
from repro.workloads.debloat import add_debloat_instances


def tiny_corpus_config(**overrides):
    base = dict(
        num_benchmarks=2,
        min_classes=8,
        max_classes=14,
        decompilers=("alpha", "beta"),
    )
    base.update(overrides)
    return CorpusConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(tiny_corpus_config())


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(strategies=("our-reducer", "jreduce"))


@pytest.fixture(scope="module")
def serial_reference(corpus, config):
    return run_corpus_experiment(corpus, config)


def signatures(outcomes):
    return [outcome_signature(o) for o in outcomes]


def strict(outcome):
    """Full equality except host wall time (same-process comparisons)."""
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    return fields


class TestWorkerBudget:
    def test_detect_explicit_total(self):
        assert WorkerBudget.detect(5).total == 5

    def test_detect_default_is_positive(self):
        assert WorkerBudget.detect().total >= 1
        assert WorkerBudget.detect(0).total >= 1

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            WorkerBudget(0)

    def test_corpus_jobs_clamped_to_budget(self):
        budget = WorkerBudget(3)
        assert budget.corpus_jobs(8) == 3
        assert budget.corpus_jobs(2) == 2
        assert budget.corpus_jobs(0) == 1

    def test_probe_pool_cap_single_worker(self):
        # One corpus worker: its pool gets the whole leftover.
        assert WorkerBudget(8).probe_pool_cap(1) == 7

    def test_probe_pool_cap_divided(self):
        # Per-worker pools: leftover splits across corpus workers.
        assert WorkerBudget(8).probe_pool_cap(2) == 3

    def test_probe_pool_cap_never_below_one(self):
        # A pool that cannot exist would change semantics; the budget
        # only sizes.
        assert WorkerBudget(2).probe_pool_cap(4) == 1
        assert WorkerBudget(1).probe_pool_cap(1) == 1


class TestOversubscriptionRegression:
    """jobs x speculate must respect one global budget."""

    def test_probe_cap_none_without_budget(self, config):
        assert probe_cap_for(config, 2) is None
        assert probe_cap_for(None, 2) is None

    def test_probe_cap_divides_for_process_scheduler(self):
        config = ExperimentConfig(worker_budget=6, speculate=4)
        # 2 corpus workers take 2 slots; 4 left, 2 per private pool.
        assert probe_cap_for(config, 2) == 2
        # An inline run's single pool gets the whole rest.
        assert probe_cap_for(config, 1) == 5

    def test_requested_jobs_clamped_by_budget(self, corpus, serial_reference):
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"), worker_budget=2
        )
        outcomes = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=8
        )
        assert signatures(outcomes) == signatures(serial_reference)


class TestSerialProcessEquality:
    def test_inline_matches_thread_runner(
        self, corpus, config, serial_reference
    ):
        inline = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=1
        )
        assert [strict(o) for o in inline] == [
            strict(o) for o in serial_reference
        ]

    def test_pooled_matches_serial(self, corpus, config, serial_reference):
        pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=2
        )
        assert signatures(pooled) == signatures(serial_reference)

    def test_progress_lines_commit_in_serial_order(self, corpus, config):
        serial_lines, pooled_lines = [], []
        run_corpus_experiment(corpus, config, progress=serial_lines.append)
        run_scheduled_corpus_experiment(
            benchmarks=corpus,
            config=config,
            jobs=2,
            progress=pooled_lines.append,
        )
        assert serial_lines == pooled_lines

    def test_collect_false_streams_without_holding_outcomes(
        self, corpus, config, serial_reference
    ):
        streamed = []
        count = run_scheduled_corpus_experiment(
            benchmarks=corpus,
            config=config,
            jobs=2,
            on_outcome=streamed.append,
            collect=False,
        )
        assert count == len(serial_reference)
        assert signatures(streamed) == signatures(serial_reference)

    def test_requires_exactly_one_corpus_source(self, corpus, config):
        with pytest.raises(ValueError):
            run_scheduled_corpus_experiment(config=config)
        with pytest.raises(ValueError):
            run_scheduled_corpus_experiment(
                benchmarks=corpus, corpus_path="/nope", config=config
            )


class TestChaosLane:
    def test_chaos_outcomes_identical(self, corpus):
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"),
            chaos=FaultPlan(kind="flaky", rate=0.2, seed=7),
            retries=3,
            keep_going=True,
        )
        serial = run_corpus_experiment(corpus, config)
        pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=2
        )
        assert signatures(pooled) == signatures(serial)

    def test_crash_without_keep_going_raises_in_parent(self, corpus):
        config = ExperimentConfig(
            strategies=("our-reducer",),
            chaos=FaultPlan(kind="crash", rate=1.0, seed=3),
        )
        with pytest.raises(OracleCrash):
            run_scheduled_corpus_experiment(
                benchmarks=corpus, config=config, jobs=2
            )

    def test_crash_with_keep_going_matches_serial(self, corpus):
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"),
            chaos=FaultPlan(kind="crash", rate=0.3, seed=3),
            keep_going=True,
        )
        serial = run_corpus_experiment(corpus, config)
        pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=2
        )
        assert signatures(pooled) == signatures(serial)
        assert any(o.error for o in pooled)


class TestWarmStoreLane:
    def test_workers_share_one_warm_store(self, corpus, config, tmp_path):
        spec = StoreSpec(path=str(tmp_path / "store"))
        run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=1, store_spec=spec
        )
        warm_serial = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=1, store_spec=spec
        )
        warm_pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=2, store_spec=spec
        )
        assert signatures(warm_pooled) == signatures(warm_serial)
        # Every probe answered from the shared store: zero fresh calls.
        assert all(o.predicate_calls == 0 for o in warm_pooled)

    def test_live_store_reopened_by_worker_processes(
        self, corpus, config, tmp_path
    ):
        from repro.parallel import open_store

        reference = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=1,
            store_spec=StoreSpec(path=str(tmp_path / "reference")),
        )
        with open_store(str(tmp_path / "live"), shards=4) as store:
            cold = run_scheduled_corpus_experiment(
                benchmarks=corpus, config=config, jobs=2, store=store
            )
            warm_pooled = run_scheduled_corpus_experiment(
                benchmarks=corpus, config=config, jobs=2, store=store
            )
            # Workers wrote through their own handles; the live one
            # faults the same shards from disk.
            warm_inline = run_scheduled_corpus_experiment(
                benchmarks=corpus, config=config, jobs=1, store=store
            )
        assert signatures(cold) == signatures(reference)
        assert all(o.predicate_calls == 0 for o in warm_pooled)
        assert all(o.predicate_calls == 0 for o in warm_inline)

    def test_store_spec_of_a_live_handle(self, tmp_path):
        from repro.parallel import open_store

        with open_store(str(tmp_path / "s"), shards=3, max_entries=9) as s:
            assert StoreSpec.of(s) == StoreSpec(
                path=str(tmp_path / "s"), shards=3, max_entries=9
            )

    def test_tenants_share_one_store_across_job_counts(
        self, corpus, tmp_path
    ):
        # The tenant prefixes the oracle fingerprint inside the config
        # that ships to workers, so a tenant's entries stay its own at
        # any job count.
        spec = StoreSpec(path=str(tmp_path / "store"))

        def calls(tenant, jobs):
            outcomes = run_scheduled_corpus_experiment(
                benchmarks=corpus,
                config=ExperimentConfig(
                    strategies=("our-reducer",), tenant=tenant
                ),
                jobs=jobs,
                store_spec=spec,
            )
            return sum(o.predicate_calls for o in outcomes)

        cold_a = calls("a", jobs=2)
        assert cold_a > 0
        assert calls("a", jobs=1) == 0
        assert calls("b", jobs=1) == cold_a
        assert calls("b", jobs=2) == 0


class TestSpeculateBudgetLane:
    def test_speculate_with_budget_identical(self, corpus):
        config = ExperimentConfig(
            strategies=("our-reducer",),
            speculate=2,
            worker_budget=3,
        )
        serial = run_corpus_experiment(corpus, config)
        pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=config, jobs=2
        )
        assert signatures(pooled) == signatures(serial)


class TestProcessSpeculationSignature:
    def test_identical_runs_give_equal_signatures(self):
        # Regression: which probe-pool worker materializes a probe
        # changes the per-run reducer.memo_* counts, so the signature
        # must leave those placement counters out.
        corpus = build_corpus(
            tiny_corpus_config(num_benchmarks=3, max_classes=12)
        )
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"),
            speculate=2,
            probe_backend="process",
        )
        first = run_scheduled_corpus_experiment(corpus, config)
        second = run_scheduled_corpus_experiment(corpus, config)
        assert first and signatures(first) == signatures(second)


class TestManifestPlanning:
    def test_manifest_run_matches_in_memory(self, tmp_path):
        corpus_config = tiny_corpus_config(decompilers=("alpha",))
        config = ExperimentConfig(strategies=("our-reducer", "jreduce"))
        save_corpus(build_corpus(corpus_config), str(tmp_path / "corpus"))

        reference_corpus = build_corpus(corpus_config)
        add_debloat_instances(reference_corpus)
        reference = run_scheduled_corpus_experiment(
            benchmarks=reference_corpus, config=config, jobs=1
        )
        planned = run_scheduled_corpus_experiment(
            corpus_path=str(tmp_path / "corpus"),
            config=config,
            jobs=2,
            include_debloat=True,
        )
        assert signatures(planned) == signatures(reference)
        assert any(
            o.decompiler == "debloat" for o in planned
        ), "debloat row-group missing from the manifest plan"


class TestInlineSpecs:
    def test_materializing_inline_specs_decompiles_no_full_app(
        self, corpus, config, monkeypatch
    ):
        """In-memory specs carry the parent's error set, so a worker's
        rebuilt oracle decompiles nothing until it is probed."""
        from repro.decompiler.oracle import DecompilerOracle
        from repro.observability import scoped_metrics
        from repro.parallel import scheduler

        def forbidden(self, app):
            raise AssertionError("full-application decompile")

        monkeypatch.setattr(DecompilerOracle, "errors_of", forbidden)
        tasks = scheduler._plan_in_memory(corpus, config)
        assert tasks
        with scoped_metrics() as metrics:
            for task in tasks:
                spec = scheduler._spec_of(task, config)
                assert spec.app_path is None
                assert (
                    spec.original_errors
                    == task.instance.oracle.original_errors
                )
                _, instance = scheduler._materialize(spec)
                assert (
                    instance.oracle.original_errors == spec.original_errors
                )
        assert "decompile.memo_misses" not in metrics.counter_values()

    def test_manifest_specs_leave_the_error_set_to_the_worker(
        self, tmp_path, config
    ):
        from repro.parallel import scheduler

        path = str(tmp_path / "corpus")
        save_corpus(build_corpus(tiny_corpus_config()), path)
        tasks = scheduler._plan_from_manifest(path, config)
        assert tasks
        for task in tasks:
            assert scheduler._spec_of(task, config).original_errors is None


class TestCostHints:
    def test_load_cost_hints_sums_real_seconds(self, tmp_path):
        path = tmp_path / "results.jsonl"
        rows = [
            {"benchmark_id": "b000", "decompiler": "alpha",
             "strategy": "our-reducer", "real_seconds": 1.5},
            {"benchmark_id": "b000", "decompiler": "alpha",
             "strategy": "jreduce", "real_seconds": 0.5},
            {"benchmark_id": "b001", "decompiler": "beta",
             "strategy": "our-reducer", "real_seconds": 4.0},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            fh.write('{"torn": ')  # a killed writer's final line
        hints = load_cost_hints(str(path))
        assert hints[("b000", "alpha")] == pytest.approx(2.0)
        assert hints[("b001", "beta")] == pytest.approx(4.0)

    def test_hints_reorder_dispatch_without_changing_results(
        self, corpus, config, serial_reference, tmp_path
    ):
        # Deliberately inverted costs: the cheapest instance is claimed
        # most expensive.  Dispatch order changes; the commit order and
        # every outcome must not.
        hints = {
            (b.benchmark_id, inst.decompiler): float(1000 - 100 * i)
            for i, (b, inst) in enumerate(
                (b, inst) for b in corpus for inst in b.instances
            )
        }
        pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus,
            config=config,
            jobs=2,
            cost_hints=hints,
        )
        assert signatures(pooled) == signatures(serial_reference)


class TestSeedDerivation:
    """Per-benchmark seeds key on the benchmark id, not batch position."""

    def test_benchmark_content_position_independent(self):
        big = build_corpus(tiny_corpus_config(num_benchmarks=4))
        small = build_corpus(tiny_corpus_config(num_benchmarks=2))
        assert [b.seed for b in big[:2]] == [b.seed for b in small]
        assert [b.app for b in big[:2]] == [b.app for b in small]

    def test_seeds_distinct_across_benchmarks(self):
        seeds = [b.seed for b in build_corpus(tiny_corpus_config())]
        assert len(set(seeds)) == len(seeds)

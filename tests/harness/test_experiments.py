"""Integration tests for the experiment harness (small corpus)."""

import pytest

from repro.bytecode.metrics import application_size_bytes
from repro.harness import (
    ExperimentConfig,
    corpus_statistics,
    mean_reduction_over_time,
    render_cfd_table,
    render_headline,
    render_lossy_comparison,
    render_statistics,
    render_timeline,
    run_corpus_experiment,
    run_instance,
)
from repro.harness.report import by_strategy
from repro.harness.timeline import reduction_factor_at
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=2, min_classes=16, max_classes=30)
    )


@pytest.fixture(scope="module")
def outcomes(tiny_corpus):
    config = ExperimentConfig(
        strategies=("our-reducer", "jreduce", "lossy-first", "lossy-last")
    )
    return run_corpus_experiment(tiny_corpus, config)


class TestRunInstance:
    def test_outcome_shape(self, tiny_corpus):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        outcome = run_instance(benchmark, instance, "our-reducer")
        assert outcome.strategy == "our-reducer"
        assert 0 < outcome.final_bytes <= outcome.total_bytes
        assert 0 < outcome.relative_bytes <= 1.0
        assert outcome.predicate_calls >= 1
        assert outcome.simulated_seconds >= 33.0  # at least one fresh run

    def test_solution_preserves_errors(self, tiny_corpus):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        outcome = run_instance(benchmark, instance, "jreduce")
        kept = frozenset(
            c.name
            for c in benchmark.app.classes
        )
        # the full class set always satisfies the class predicate
        assert instance.oracle.class_predicate(kept)

    def test_unknown_strategy(self, tiny_corpus):
        benchmark = next(b for b in tiny_corpus if b.instances)
        with pytest.raises(ValueError):
            run_instance(benchmark, benchmark.instances[0], "nope")


    @pytest.mark.parametrize(
        "strategy", ["our-reducer", "jreduce", "lossy-first", "lossy-last"]
    )
    def test_final_size_equals_serializing_the_output(
        self, tiny_corpus, strategy, monkeypatch
    ):
        """The run's serializer measures the output without serializing
        it: the final bytes and classes equal the reduce-then-serialize
        figures of the solution the strategy returned."""
        from repro.bytecode.reducer import reduce_application
        from repro.harness import experiments

        results = []
        for name in (
            "generalized_binary_reduction",
            "binary_reduction",
            "lossy_reduce",
        ):
            original = getattr(experiments, name)

            def keep(*args, _original=original, **kwargs):
                results.append(_original(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(experiments, name, keep)
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        outcome = run_instance(benchmark, instance, strategy)
        (result,) = results
        kept = result.solution
        if strategy == "jreduce":
            kept = instance.oracle.class_items(kept)
        reduced = reduce_application(benchmark.app, kept)
        assert outcome.final_bytes == application_size_bytes(reduced)
        assert outcome.final_classes == len(reduced.classes)
        assert outcome.final_bytes < outcome.total_bytes


class TestCorpusExperiment:
    def test_runs_leave_instance_oracles_unprobed(self):
        from repro.workloads.debloat import add_debloat_instances

        corpus = build_corpus(
            CorpusConfig(num_benchmarks=2, min_classes=8, max_classes=12)
        )
        add_debloat_instances(corpus)
        run_corpus_experiment(
            corpus, ExperimentConfig(strategies=("our-reducer", "jreduce")),
            jobs=1,
        )
        oracles = [i.oracle for b in corpus for i in b.instances]
        assert any(o.decompiler.name == "debloat" for o in oracles)
        assert any(o.decompiler.name != "debloat" for o in oracles)
        for oracle in oracles:
            assert not oracle._materializer._reduced
            if oracle.decompiler.name != "debloat":
                assert not oracle._decompile_memo.sites
                assert not oracle._decompile_memo.classes
                assert not oracle._check_memo

    def test_all_strategies_ran(self, tiny_corpus, outcomes):
        instances = sum(len(b.instances) for b in tiny_corpus)
        assert len(outcomes) == 4 * instances

    def test_our_reducer_beats_jreduce_on_bytes(self, outcomes):
        groups = by_strategy(outcomes)
        ours = groups["our-reducer"]
        theirs = groups["jreduce"]
        from repro.harness.metrics import geometric_mean

        assert geometric_mean(
            [o.relative_bytes for o in ours]
        ) < geometric_mean([o.relative_bytes for o in theirs])

    def test_lossy_encodings_no_better_than_ours(self, outcomes):
        """Lossy solutions are valid but generally larger (§4.3)."""
        groups = by_strategy(outcomes)
        key = lambda o: (o.benchmark_id, o.decompiler)  # noqa: E731
        ours = {key(o): o for o in groups["our-reducer"]}
        for variant in ("lossy-first", "lossy-last"):
            worse_or_equal = 0
            for outcome in groups[variant]:
                mine = ours[key(outcome)]
                if outcome.final_bytes >= mine.final_bytes * 0.8:
                    worse_or_equal += 1
            assert worse_or_equal >= len(groups[variant]) // 2


class TestSimulatedClock:
    def test_simulated_seconds_is_virtual_only(self, tiny_corpus):
        """The simulated axis must not depend on host machine speed."""
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        first = run_instance(benchmark, instance, "our-reducer")
        second = run_instance(benchmark, instance, "our-reducer")
        assert first.simulated_seconds == second.simulated_seconds
        assert first.simulated_seconds == 33.0 * first.predicate_calls
        assert first.timeline == second.timeline

    def test_timeline_stamps_are_multiples_of_the_per_run_cost(
        self, tiny_corpus
    ):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        outcome = run_instance(benchmark, instance, "jreduce")
        for stamp, _ in outcome.timeline:
            assert stamp == 33.0 * round(stamp / 33.0)


class TestTimeline:
    def test_reduction_factor_steps(self, outcomes):
        outcome = outcomes[0]
        assert reduction_factor_at(outcome, -1.0) == 1.0
        end = reduction_factor_at(outcome, outcome.simulated_seconds + 1)
        assert end >= 1.0
        assert end == pytest.approx(
            outcome.total_bytes / outcome.final_bytes, rel=0.3
        ) or end >= 1.0

    def test_mean_series_monotone(self, outcomes):
        series = mean_reduction_over_time(outcomes)
        factors = [f for (_, f) in series]
        assert all(b >= a - 1e-9 for a, b in zip(factors, factors[1:]))

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            mean_reduction_over_time([])


class TestReports:
    def test_statistics_renders(self, tiny_corpus):
        text = render_statistics(corpus_statistics(tiny_corpus))
        assert "geo-means" in text and "paper:" in text

    def test_headline_renders(self, outcomes):
        text = render_headline(outcomes)
        assert "our-reducer vs jreduce" in text
        assert "x better on bytes" in text

    def test_cfd_tables_render(self, outcomes):
        for metric in ("time", "classes", "bytes"):
            text = render_cfd_table(outcomes, metric, f"CFD {metric}")
            assert "our-reducer" in text and "jreduce" in text

    def test_cfd_rejects_unknown_metric(self, outcomes):
        with pytest.raises(ValueError):
            render_cfd_table(outcomes, "nope", "title")

    def test_lossy_comparison_renders(self, outcomes):
        text = render_lossy_comparison(outcomes)
        assert "lossy-first" in text and "strictly better" in text

    def test_timeline_renders(self, outcomes):
        groups = by_strategy(outcomes)
        series = {
            name: mean_reduction_over_time(group)
            for name, group in groups.items()
        }
        text = render_timeline(series)
        assert "Reduction over time" in text

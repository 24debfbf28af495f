"""Tests for the coverage-based debloating scenario."""

import pytest

from repro.harness.experiments import ExperimentConfig, run_instance
from repro.harness.stats import corpus_statistics
from repro.workloads.corpus import CorpusConfig, build_corpus
from repro.workloads.debloat import (
    DEBLOAT_DECOMPILER,
    DebloatOracle,
    add_debloat_instances,
)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(
        CorpusConfig(
            num_benchmarks=2,
            min_classes=8,
            max_classes=14,
            decompilers=("alpha",),
        )
    )


class TestDebloatOracle:
    def test_coverage_seeded_from_benchmark_id_only(self, corpus):
        benchmark = corpus[0]
        first = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        second = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        assert first.covered_items == second.covered_items

    def test_coverage_differs_across_benchmarks(self, corpus):
        profiles = {
            DebloatOracle(b.app, b.benchmark_id).covered_items
            for b in corpus
        }
        assert len(profiles) == len(corpus)

    def test_full_program_satisfies_predicates(self, corpus):
        from repro.bytecode.items import items_of

        benchmark = corpus[0]
        oracle = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        assert oracle.item_predicate(frozenset(items_of(benchmark.app)))
        assert oracle.class_predicate(
            frozenset(c.name for c in benchmark.app.classes)
        )

    def test_dropping_covered_item_fails_predicate(self, corpus):
        from repro.bytecode.items import items_of

        benchmark = corpus[0]
        oracle = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        everything = frozenset(items_of(benchmark.app))
        covered = next(iter(oracle.covered_items))
        assert not oracle.item_predicate(everything - {covered})

    def test_required_classes_include_entry_and_coverage(self, corpus):
        benchmark = corpus[0]
        oracle = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        required = set(oracle.required_classes)
        assert benchmark.app.entry_class in required
        assert oracle.covered_classes <= required


class TestDebloatProblem:
    def test_problem_pins_coverage_with_unit_clauses(self, corpus):
        benchmark = corpus[0]
        oracle = DebloatOracle(benchmark.app, benchmark.benchmark_id)
        problem = oracle.build_problem()
        units = {
            lit.var
            for clause in problem.constraint.clauses
            if len(clause.literals) == 1
            for lit in clause.literals
            if lit.positive
        }
        assert oracle.covered_items <= units

    def test_gbr_keeps_coverage_and_shrinks(self, corpus):
        benchmark = corpus[0]
        instance = next(
            i
            for i in add_debloat_instances([benchmark])[0].instances
            if i.scenario == "debloat"
        )
        config = ExperimentConfig(strategies=("our-reducer",))
        outcome = run_instance(benchmark, instance, "our-reducer", config)
        assert outcome.status == "complete"
        assert outcome.final_bytes < outcome.total_bytes
        assert outcome.final_classes <= outcome.total_classes


class TestAddDebloatInstances:
    def test_appends_one_instance_per_benchmark(self, corpus):
        local = build_corpus(
            CorpusConfig(
                num_benchmarks=2,
                min_classes=8,
                max_classes=14,
                decompilers=("alpha",),
            )
        )
        before = [len(b.instances) for b in local]
        add_debloat_instances(local)
        for benchmark, count in zip(local, before):
            assert len(benchmark.instances) == count + 1
            extra = benchmark.instances[-1]
            assert extra.scenario == "debloat"
            assert extra.decompiler == DEBLOAT_DECOMPILER
            assert extra.oracle.is_buggy

    def test_corpus_statistics_exclude_debloat_rows(self):
        local = build_corpus(
            CorpusConfig(
                num_benchmarks=2,
                min_classes=8,
                max_classes=14,
                decompilers=("alpha",),
            )
        )
        plain = corpus_statistics(local)
        add_debloat_instances(local)
        assert corpus_statistics(local) == plain

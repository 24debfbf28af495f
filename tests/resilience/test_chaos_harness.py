"""Harness-level resilience: chaos runs, budgets, graceful degradation."""

import dataclasses

import pytest

from repro.harness import ExperimentConfig
from repro.parallel.scheduler import run_scheduled_corpus_experiment
from repro.resilience import FaultPlan, OracleCrash
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=2, min_classes=10, max_classes=18)
    )


STRATEGIES = ("our-reducer", "jreduce")


def comparable(outcome):
    """Everything host- and fault-handling-independent.

    ``real_seconds`` varies by host; ``metrics`` gains retry counters
    under chaos.  Everything else — the reduction itself — must match.
    """
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    fields.pop("metrics")
    return fields


class TestChaosEquivalence:
    def test_flaky_oracle_with_retries_matches_fault_free_run(
        self, tiny_corpus
    ):
        """The headline acceptance property: a 20%-flaky oracle with
        retries produces byte-identical final solutions to a clean run."""
        clean = run_scheduled_corpus_experiment(
            tiny_corpus, ExperimentConfig(strategies=STRATEGIES)
        )
        chaos = run_scheduled_corpus_experiment(
            tiny_corpus,
            ExperimentConfig(
                strategies=STRATEGIES,
                retries=10,
                chaos=FaultPlan(kind="flaky", rate=0.2, seed=2021),
            ),
        )
        assert len(chaos) == len(clean)
        for expected, actual in zip(clean, chaos):
            assert comparable(expected) == comparable(actual)
        # And the chaos run really was exercised: retries happened.
        total_retries = sum(
            o.metrics.get("predicate.retries", 0) for o in chaos
        )
        assert total_retries > 0

    def test_chaos_schedule_identical_serial_and_parallel(self, tiny_corpus):
        config = ExperimentConfig(
            strategies=STRATEGIES,
            retries=10,
            chaos=FaultPlan(kind="flaky", rate=0.2, seed=7),
        )
        serial = run_scheduled_corpus_experiment(tiny_corpus, config)
        parallel = run_scheduled_corpus_experiment(tiny_corpus, config, jobs=2)
        for expected, actual in zip(serial, parallel):
            assert comparable(expected) == comparable(actual)


class TestBudgetedCorpus:
    def test_exhausted_runs_are_partial_and_anytime(self, tiny_corpus):
        outcomes = run_scheduled_corpus_experiment(
            tiny_corpus,
            ExperimentConfig(strategies=STRATEGIES, budget_calls=10),
        )
        partial = [o for o in outcomes if o.status == "partial"]
        assert partial, "a 10-call budget must exhaust some runs"
        for outcome in partial:
            if outcome.timeline:
                # The solution is exactly the predicate's best-so-far:
                # the last timeline entry reports its size in bytes.
                assert outcome.timeline[-1][1] == outcome.final_bytes
            else:
                # No satisfying query before exhaustion: the anytime
                # fallback is the full input.
                assert outcome.final_bytes == outcome.total_bytes

    def test_generous_budget_changes_nothing(self, tiny_corpus):
        clean = run_scheduled_corpus_experiment(
            tiny_corpus, ExperimentConfig(strategies=("our-reducer",))
        )
        budgeted = run_scheduled_corpus_experiment(
            tiny_corpus,
            ExperimentConfig(
                strategies=("our-reducer",), budget_calls=10_000
            ),
        )
        for expected, actual in zip(clean, budgeted):
            assert comparable(expected) == comparable(actual)
            assert actual.status == "complete"


class TestCrashDegradation:
    CRASH = FaultPlan(kind="crash", rate=0.05, seed=11)

    def test_keep_going_records_errors_and_finishes(self, tiny_corpus):
        config = ExperimentConfig(
            strategies=STRATEGIES, keep_going=True, chaos=self.CRASH
        )
        outcomes = run_scheduled_corpus_experiment(tiny_corpus, config)
        expected_count = sum(
            len(b.instances) * len(STRATEGIES) for b in tiny_corpus
        )
        assert len(outcomes) == expected_count
        errored = [o for o in outcomes if o.status == "error"]
        assert errored, "a 5% crash rate must fell at least one instance"
        for outcome in errored:
            assert "OracleCrash" in outcome.error
            # Degraded outcomes keep their place with sizes pinned at
            # "no reduction".
            assert outcome.final_bytes == outcome.total_bytes
            assert outcome.predicate_calls == 0

    def test_crashes_degrade_identically_in_parallel(self, tiny_corpus):
        config = ExperimentConfig(
            strategies=STRATEGIES, keep_going=True, chaos=self.CRASH
        )
        serial = run_scheduled_corpus_experiment(tiny_corpus, config)
        parallel = run_scheduled_corpus_experiment(tiny_corpus, config, jobs=2)
        for expected, actual in zip(serial, parallel):
            assert comparable(expected) == comparable(actual)

    def test_without_keep_going_the_crash_propagates(self, tiny_corpus):
        config = ExperimentConfig(strategies=STRATEGIES, chaos=self.CRASH)
        with pytest.raises(OracleCrash):
            run_scheduled_corpus_experiment(tiny_corpus, config)

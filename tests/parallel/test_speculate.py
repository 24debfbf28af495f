"""Differential tests: speculative GBR is byte-identical to sequential.

The whole value of :mod:`repro.parallel.speculate` rests on one claim —
any speculation width, with any executor, returns the *exact* result
the sequential binary search returns: same solution, same learned-set
trajectory, same prefix indices, and (budget-serialized) the same
anytime partial results.  These tests check that claim on seeded corpus
instances, under chaos fault injection, and with exhausted budgets.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decompiler.oracle import build_reduction_problem
from repro.harness import ExperimentConfig, run_instance
from repro.parallel.speculate import (
    candidate_midpoints,
    speculation_allowed,
)
from repro.reduction import (
    InstrumentedPredicate,
    ReductionProblem,
    generalized_binary_reduction,
)
from repro.reduction.gbr import GbrTrace
from repro.resilience import Budget, FaultPlan, ResilientPredicate
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=2, min_classes=10, max_classes=18)
    )


@pytest.fixture(scope="module")
def instances(corpus):
    pairs = [
        (benchmark, instance)
        for benchmark in corpus
        for instance in benchmark.instances
    ]
    assert pairs, "corpus produced no buggy instances"
    return pairs


@pytest.fixture(scope="module")
def pool():
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


class TestCandidateMidpoints:
    def test_width_one_is_the_binary_search_midpoint(self):
        for low, high in [(0, 2), (0, 9), (3, 100), (7, 8)]:
            if high - low > 1:
                assert candidate_midpoints(low, high, 1) == [
                    (low + high) // 2
                ]

    def test_strictly_interior_sorted_distinct(self):
        mids = candidate_midpoints(10, 50, 4)
        assert mids == sorted(set(mids))
        assert all(10 < m < 50 for m in mids)
        assert len(mids) == 4

    def test_width_larger_than_span_yields_all_interior_points(self):
        assert candidate_midpoints(0, 5, 10) == [1, 2, 3, 4]

    def test_degenerate_interval_yields_nothing(self):
        assert candidate_midpoints(3, 4, 4) == []

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            candidate_midpoints(0, 10, 0)

    @given(
        low=st.integers(min_value=0, max_value=500),
        span=st.integers(min_value=2, max_value=500),
        width=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_properties_hold_for_any_interval(self, low, span, width):
        high = low + span
        mids = candidate_midpoints(low, high, width)
        assert mids, "a splittable interval must yield a candidate"
        assert mids == sorted(set(mids))
        assert all(low < m < high for m in mids)
        assert len(mids) <= width


def _run_gbr(problem, **kwargs):
    trace = GbrTrace()
    result = generalized_binary_reduction(problem, trace=trace, **kwargs)
    return result, trace


class TestSpeculativeGbrByteIdentical:
    @pytest.mark.parametrize("width", [2, 3, 4, 8])
    def test_corpus_instance_identical_at_every_width(
        self, instances, pool, width
    ):
        benchmark, instance = instances[0]
        seq_problem = build_reduction_problem(
            benchmark.app, instance.oracle.decompiler
        )
        spec_problem = build_reduction_problem(
            benchmark.app, instance.oracle.decompiler
        )
        seq, seq_trace = _run_gbr(seq_problem)
        spec, spec_trace = _run_gbr(
            spec_problem, speculate=width, probe_executor=pool
        )
        assert spec.solution == seq.solution
        assert spec.status == seq.status
        assert spec.iterations == seq.iterations
        assert spec_trace.learned == seq_trace.learned
        assert spec_trace.prefix_indices == seq_trace.prefix_indices

    def test_every_corpus_instance_identical(self, instances, pool):
        for benchmark, instance in instances:
            seq, seq_trace = _run_gbr(
                build_reduction_problem(
                    benchmark.app, instance.oracle.decompiler
                )
            )
            spec, spec_trace = _run_gbr(
                build_reduction_problem(
                    benchmark.app, instance.oracle.decompiler
                ),
                speculate=4,
                probe_executor=pool,
            )
            key = f"{benchmark.benchmark_id}/{instance.decompiler}"
            assert spec.solution == seq.solution, key
            assert spec_trace.learned == seq_trace.learned, key
            assert spec_trace.prefix_indices == seq_trace.prefix_indices, key

    def test_speculation_reports_its_work(self, instances, pool):
        benchmark, instance = instances[0]
        problem = build_reduction_problem(
            benchmark.app, instance.oracle.decompiler
        )
        result, _ = _run_gbr(problem, speculate=4, probe_executor=pool)
        metrics = result.extras["metrics"]
        assert metrics.get("speculate.rounds", 0) >= 1
        assert metrics.get("speculate.probes_useful", 0) >= 1
        assert "gbr.probes" in metrics

    def test_simulated_time_improves(self, instances, pool):
        """Max-of-batch accounting: fewer rounds, less virtual time."""
        benchmark, instance = instances[0]
        seq_problem = build_reduction_problem(
            benchmark.app, instance.oracle.decompiler
        )
        seq_pred = InstrumentedPredicate(
            seq_problem.predicate, cost_per_call=33.0
        )
        generalized_binary_reduction(
            ReductionProblem(
                variables=seq_problem.variables,
                predicate=seq_pred,
                constraint=seq_problem.constraint,
                description=seq_problem.description,
            )
        )
        spec_problem = build_reduction_problem(
            benchmark.app, instance.oracle.decompiler
        )
        spec_pred = InstrumentedPredicate(
            spec_problem.predicate, cost_per_call=33.0
        )
        generalized_binary_reduction(
            ReductionProblem(
                variables=spec_problem.variables,
                predicate=spec_pred,
                constraint=spec_problem.constraint,
                description=spec_problem.description,
            ),
            speculate=4,
            probe_executor=pool,
        )
        assert spec_pred.virtual_now() < seq_pred.virtual_now()


class TestSpeculationGuards:
    def test_plain_callable_refuses(self):
        assert not speculation_allowed(lambda s: True)

    def test_instrumented_predicate_allows(self):
        assert speculation_allowed(InstrumentedPredicate(lambda s: True))

    def test_unlimited_budget_allows(self):
        wrapped = InstrumentedPredicate(
            ResilientPredicate(lambda s: True, budget=Budget())
        )
        assert speculation_allowed(wrapped)

    def test_limiting_budget_serializes(self):
        wrapped = InstrumentedPredicate(
            ResilientPredicate(lambda s: True, budget=Budget(max_calls=10))
        )
        assert not speculation_allowed(wrapped)


def _comparable(outcome):
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    return fields


class TestHarnessDifferential:
    """run_instance-level equality, including chaos and budgets."""

    def test_chaos_run_reaches_the_same_solution(self, instances):
        """Under fault injection the *final result* stays identical.

        Speculation reorders which attempt draws which fault, so call
        counts may differ — but retries absorb every transient fault
        and the reduction outcome must not move.
        """
        benchmark, instance = instances[0]
        config = dict(
            strategies=("our-reducer",),
            chaos=FaultPlan(kind="flaky", rate=0.2, seed=7),
            retries=8,
        )
        seq = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(**config),
        )
        spec = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(speculate=4, **config),
        )
        assert spec.final_bytes == seq.final_bytes
        assert spec.final_classes == seq.final_classes
        assert spec.status == seq.status == "complete"
        # The chaos harness's budget is unlimited, so speculation must
        # NOT have been silently serialized.
        assert spec.metrics.get("speculate.rounds", 0) >= 1
        assert "speculate.budget_serialized" not in spec.metrics

    def test_exhausted_budget_serializes_and_partials_match(
        self, instances
    ):
        """A limiting budget downgrades to sequential probing, so the
        anytime partial result is byte-identical to a sequential run."""
        benchmark, instance = instances[0]
        seq = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(strategies=("our-reducer",), budget_calls=5),
        )
        spec = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(
                strategies=("our-reducer",), budget_calls=5, speculate=4
            ),
        )
        assert seq.status == "partial"
        assert spec.metrics.get("speculate.budget_serialized") == 1
        assert "speculate.rounds" not in spec.metrics
        seq_fields, spec_fields = _comparable(seq), _comparable(spec)
        # The downgrade counter is the only permitted metrics delta.
        spec_fields["metrics"].pop("speculate.budget_serialized")
        assert spec_fields == seq_fields

    def test_clean_run_outcomes_identical(self, instances):
        benchmark, instance = instances[-1]
        seq = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(strategies=("our-reducer",)),
        )
        spec = run_instance(
            benchmark,
            instance,
            "our-reducer",
            ExperimentConfig(strategies=("our-reducer",), speculate=4),
        )
        assert spec.final_bytes == seq.final_bytes
        assert spec.final_classes == seq.final_classes
        assert spec.status == seq.status
        assert spec.timeline[-1][1] == seq.timeline[-1][1]
        assert spec.simulated_seconds <= seq.simulated_seconds


class TestEvaluateBatch:
    def test_duplicates_within_a_round_cost_one_call(self, pool):
        calls = []

        def predicate(sub_input):
            calls.append(sub_input)
            return len(sub_input) >= 2

        wrapped = InstrumentedPredicate(predicate, cost_per_call=33.0)
        a = frozenset({"x", "y"})
        outcomes = wrapped.evaluate_batch([a, a, a], executor=pool)
        assert outcomes == [True, True, True]
        assert len(calls) == 1
        assert wrapped.calls == 1

    def test_round_charges_max_of_batch_virtual_time(self, pool):
        wrapped = InstrumentedPredicate(
            lambda s: True, cost_per_call=33.0
        )
        wrapped.evaluate_batch(
            [frozenset({i}) for i in range(4)], executor=pool
        )
        assert wrapped.virtual_now() == 33.0
        assert wrapped.calls == 4

    def test_cached_inputs_skip_fresh_calls(self, pool):
        wrapped = InstrumentedPredicate(
            lambda s: True, cost_per_call=33.0
        )
        first = frozenset({"a"})
        wrapped(first)
        wrapped.evaluate_batch([first, frozenset({"b"})], executor=pool)
        assert wrapped.calls == 2  # "a" answered from the memo
        assert wrapped.virtual_now() == 66.0


def _raise_on(marker):
    """A predicate that raises on inputs containing ``marker``.

    Input-keyed, not call-counted, so it is deterministic under any
    pool scheduling.
    """

    def predicate(sub_input):
        if marker in sub_input:
            raise RuntimeError(f"injected failure on {marker}")
        return True

    return predicate


class TestRoundChargeOnRaise:
    """Regression: the round's virtual charge used to be booked before
    the commit loop, so a round whose lowest-index fresh probe raised
    charged 33 simulated seconds the sequential run never charges."""

    def test_first_probe_raising_charges_nothing(self, pool):
        wrapped = InstrumentedPredicate(_raise_on("x0"), cost_per_call=33.0)
        with pytest.raises(RuntimeError):
            wrapped.evaluate_batch(
                [frozenset({"x0"}), frozenset({"x1"}), frozenset({"x2"})],
                executor=pool,
            )
        assert wrapped.virtual_now() == 0.0
        assert wrapped.calls == 0

    def test_matches_the_sequential_raising_call(self, pool):
        """Differential: batch and sequential agree on the clock when
        the first probe raises."""
        sequential = InstrumentedPredicate(
            _raise_on("x0"), cost_per_call=33.0
        )
        with pytest.raises(RuntimeError):
            sequential(frozenset({"x0"}))
        batched = InstrumentedPredicate(_raise_on("x0"), cost_per_call=33.0)
        with pytest.raises(RuntimeError):
            batched.evaluate_batch(
                [frozenset({"x0"}), frozenset({"x1"})], executor=pool
            )
        assert batched.virtual_now() == sequential.virtual_now() == 0.0
        assert batched.calls == sequential.calls == 0

    def test_later_probe_raising_charges_exactly_once(self, pool):
        """Commits before the raise book the round's single charge; the
        raise adds nothing on top."""
        wrapped = InstrumentedPredicate(_raise_on("x2"), cost_per_call=33.0)
        with pytest.raises(RuntimeError):
            wrapped.evaluate_batch(
                [frozenset({"x0"}), frozenset({"x1"}), frozenset({"x2"})],
                executor=pool,
            )
        assert wrapped.virtual_now() == 33.0
        assert wrapped.calls == 2  # x0 and x1 committed

    def test_seeded_crashing_oracle_differential(self):
        """A CrashingOracle dying on its first call must leave batch
        and sequential runs with identical clocks and counters."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.resilience.faults import CrashingOracle, OracleCrash

        sequential = InstrumentedPredicate(
            CrashingOracle(lambda s: True, crash_at_call=1),
            cost_per_call=33.0,
        )
        with pytest.raises(OracleCrash):
            sequential(frozenset({"a"}))
        batched = InstrumentedPredicate(
            CrashingOracle(lambda s: True, crash_at_call=1),
            cost_per_call=33.0,
        )
        # One worker: submission order == fresh order, so the crash
        # deterministically lands on batch position 0.
        with ThreadPoolExecutor(max_workers=1) as serial_pool:
            with pytest.raises(OracleCrash):
                batched.evaluate_batch(
                    [frozenset({"a"}), frozenset({"b"})],
                    executor=serial_pool,
                )
        assert batched.virtual_now() == sequential.virtual_now() == 0.0
        assert batched.calls == sequential.calls == 0
        assert batched.timeline == sequential.timeline == []


class TestDiscardedProbeEvents:
    """Regression: probes that physically completed but were thrown
    away because an earlier-in-order probe raised used to vanish from
    the provenance ledger."""

    def test_completed_discards_are_flagged(self, pool):
        from repro.observability import tracing_session

        with tracing_session() as (tracer, _):
            wrapped = InstrumentedPredicate(
                _raise_on("x0"), cost_per_call=33.0
            )
            with pytest.raises(RuntimeError):
                wrapped.evaluate_batch(
                    [frozenset({"x0"}), frozenset({"x1"}),
                     frozenset({"x2"})],
                    executor=pool,
                )
            probes = [
                e for e in tracer.events() if e["type"] == "probe"
            ]
        discarded = [p for p in probes if p.get("discarded")]
        assert {p["batch_pos"] for p in discarded} == {1, 2}
        assert all(p["virtual_charge"] == 0.0 for p in discarded)
        assert all(p["cache"] == "fresh" for p in discarded)
        assert all(p["outcome"] is True for p in discarded)

    def test_no_flag_on_clean_rounds(self, pool):
        from repro.observability import tracing_session

        with tracing_session() as (tracer, _):
            wrapped = InstrumentedPredicate(
                lambda s: True, cost_per_call=33.0
            )
            wrapped.evaluate_batch(
                [frozenset({"a"}), frozenset({"b"})], executor=pool
            )
            probes = [
                e for e in tracer.events() if e["type"] == "probe"
            ]
        assert probes
        assert not any(p.get("discarded") for p in probes)

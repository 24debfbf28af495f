"""End-to-end telemetry: instrumented hot paths feed spans and counters."""

from repro.fji.examples import MAIN_CODE, figure1_problem
from repro.logic import CNF, Clause, count_models, solve
from repro.observability import (
    get_tracer,
    load_traces,
    summarize,
    tracing_session,
)
from repro.reduction import generalized_binary_reduction


class TestGbrTelemetry:
    def test_trace_predicate_calls_equal_result_calls(self, tmp_path):
        """The acceptance criterion: summarized predicate-call count ==
        ``ReductionResult.predicate_calls``."""
        path = tmp_path / "gbr.jsonl"
        with tracing_session(str(path)):
            result = generalized_binary_reduction(
                figure1_problem(), require_true=frozenset({MAIN_CODE})
            )
        summary = summarize(load_traces([str(path)]))
        assert summary["counters"]["predicate.calls"] == \
            result.predicate_calls
        assert result.predicate_calls > 0

    def test_probe_counter_counts_prefix_search_queries(self):
        with tracing_session() as (_, metrics):
            result = generalized_binary_reduction(
                figure1_problem(), require_true=frozenset({MAIN_CODE})
            )
            counters = metrics.counter_values()
        # Every probe is a predicate query; GBR additionally queries
        # each progression's first entry (iterations + 1 of them).
        assert counters["gbr.probes"] > 0
        assert (
            counters["gbr.probes"] + result.iterations + 1
            == counters["predicate.queries"]
        )

    def test_progression_rebuilds_match_iterations(self):
        with tracing_session() as (_, metrics):
            result = generalized_binary_reduction(
                figure1_problem(), require_true=frozenset({MAIN_CODE})
            )
            counters = metrics.counter_values()
        # One initial build plus one rebuild per learning iteration.
        assert counters["progression.rebuilds"] == result.iterations + 1
        assert counters["gbr.iterations"] == result.iterations

    def test_span_tree_shape(self):
        with tracing_session() as (tracer, _):
            generalized_binary_reduction(
                figure1_problem(), require_true=frozenset({MAIN_CODE})
            )
            events = tracer.events()
        by_name = {}
        for event in events:
            if event["type"] == "span":
                by_name.setdefault(event["name"], []).append(event)
        assert len(by_name["gbr.run"]) == 1
        run = by_name["gbr.run"][0]
        assert run["parent_span_id"] is None
        assert run["attrs"]["iterations"] == len(by_name["gbr.iteration"])
        for iteration in by_name["gbr.iteration"]:
            assert iteration["parent_span_id"] == run["span_id"]
        # Each iteration contains a prefix search and a rebuild.
        iteration_ids = {e["span_id"] for e in by_name["gbr.iteration"]}
        assert all(
            e["parent_span_id"] in iteration_ids
            for e in by_name["gbr.prefix_search"]
        )

    def test_result_extras_carry_metrics(self):
        result = generalized_binary_reduction(
            figure1_problem(), require_true=frozenset({MAIN_CODE})
        )
        metrics = result.extras["metrics"]
        assert metrics["predicate.calls"] == result.predicate_calls
        assert metrics["progression.rebuilds"] == result.iterations + 1
        assert 0.0 <= metrics["predicate.cache_hit_rate"] <= 1.0

    def test_noop_tracer_records_nothing(self):
        tracer = get_tracer()
        assert not tracer.enabled
        before = len(tracer.events())
        generalized_binary_reduction(
            figure1_problem(), require_true=frozenset({MAIN_CODE})
        )
        assert len(tracer.events()) == before


class TestSolverTelemetry:
    def test_solver_counters(self):
        cnf = CNF(
            [
                Clause.implication(["a"], ["b"]),
                Clause.implication(["b"], ["c"]),
                Clause.unit("a"),
            ],
            variables=["a", "b", "c"],
        )
        with tracing_session() as (tracer, metrics):
            result = solve(cnf)
            counters = metrics.counter_values()
            span_names = [
                e["name"] for e in tracer.events() if e["type"] == "span"
            ]
        assert result.satisfiable
        assert counters["solver.calls"] == 1
        assert counters["solver.sat"] == 1
        # a=1 forces b and c via unit propagation.
        assert counters["solver.propagations"] >= 2
        assert "solver.solve" in span_names

    def test_unsat_counted(self):
        cnf = CNF(
            [Clause.unit("a"), Clause.unit("a", positive=False)],
            variables=["a"],
        )
        with tracing_session() as (_, metrics):
            assert not solve(cnf).satisfiable
            assert metrics.counter_values()["solver.unsat"] == 1


class TestCountingTelemetry:
    def test_component_cache_counters(self):
        # Branching on 'a' leaves the identical residual {(z)} on both
        # sides, so the component cache must hit on the second branch.
        cnf = CNF(
            [
                Clause.implication([], ["a", "z"]),
                Clause.implication(["a"], ["z"]),
            ],
            variables=["a", "z"],
        )
        with tracing_session() as (tracer, metrics):
            total = count_models(cnf)
            counters = metrics.counter_values()
            span_names = [
                e["name"] for e in tracer.events() if e["type"] == "span"
            ]
        assert total == 2  # z forced true, a free
        assert counters["counting.calls"] == 1
        assert counters["counting.cache_hits"] >= 1
        assert counters["counting.cache_misses"] >= 1
        assert "counting.count_models" in span_names


class TestMsaTelemetry:
    def test_repairs_counted_during_gbr(self):
        with tracing_session() as (_, metrics):
            generalized_binary_reduction(
                figure1_problem(), require_true=frozenset({MAIN_CODE})
            )
            counters = metrics.counter_values()
        # Building progressions repairs violated clauses via MSA.
        assert counters["msa.repairs"] > 0


class TestPredicateTelemetry:
    def test_cache_hits_and_latency_histogram(self):
        from repro.reduction import InstrumentedPredicate

        with tracing_session() as (_, metrics):
            wrapped = InstrumentedPredicate(lambda s: True)
            wrapped(frozenset({"a"}))
            wrapped(frozenset({"a"}))
            snapshot = metrics.snapshot()
        assert snapshot["counters"]["predicate.calls"] == 1
        assert snapshot["counters"]["predicate.queries"] == 2
        assert snapshot["counters"]["predicate.cache_hits"] == 1
        assert snapshot["histograms"]["predicate.latency_seconds"]["count"] == 1

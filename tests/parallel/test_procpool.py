"""Differential tests for the process probe backend.

The tentpole claim of :mod:`repro.parallel.procpool`: moving fresh
physical probes onto spawn-safe worker processes changes *nothing*
observable about a reduction — results, the virtual clock, the memo
and persistent store, and the probe provenance ledger all evolve
byte-identically to the sequential run and to the thread backend.
These tests pin the claim down across speculation widths, chaos fault
injection, and warm/cold persistent stores, plus the contract pieces:
task-spec pickling, worker-side chain rebuilding, and the guard rails
(missing task_spec, limiting budgets still serializing), and the one
dispatch both backends share (worker counters folded exactly once).
"""

import dataclasses
import pickle

import pytest

from repro.harness import ExperimentConfig, run_instance
from repro.observability import tracing_session
from repro.parallel.procpool import (
    ProbeTaskSpec,
    ToolLatencyPredicate,
    build_chain,
    build_worker_predicate,
    spawn_pool,
)
from repro.reduction.predicate import InstrumentedPredicate
from repro.resilience import Budget, FaultPlan, ResilientPredicate
from repro.workloads.corpus import CorpusConfig, build_corpus
from repro.bytecode.serializer import serialize_application


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=1, min_classes=10, max_classes=16)
    )


@pytest.fixture(scope="module")
def pair(corpus):
    benchmark = corpus[0]
    assert benchmark.instances, "corpus produced no buggy instances"
    return benchmark, benchmark.instances[0]


@pytest.fixture(scope="module")
def debloat_pair(corpus):
    from repro.workloads.debloat import add_debloat_instances

    # A private copy: the module corpus keeps its reduction instances.
    benchmark = dataclasses.replace(corpus[0], instances=[])
    add_debloat_instances([benchmark])
    return benchmark, benchmark.instances[0]


@pytest.fixture(scope="module")
def pool():
    # One spawn pool for the whole module: worker start-up dominates
    # these tests' runtime, so every test shares the same processes.
    with spawn_pool(4) as executor:
        yield executor


class _SizePredicate:
    """A picklable toy oracle: holds iff the kept set is big enough."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def __call__(self, sub_input) -> bool:
        return len(sub_input) >= self.threshold

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _SizePredicate)
            and self.threshold == other.threshold
        )

    def __hash__(self) -> int:
        return hash(("_SizePredicate", self.threshold))


class TestToolLatencyPredicate:
    def test_delegates(self):
        wrapped = ToolLatencyPredicate(_SizePredicate(2), 0.0)
        assert wrapped(frozenset({"a", "b"})) is True
        assert wrapped(frozenset({"a"})) is False

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            ToolLatencyPredicate(_SizePredicate(1), -0.5)

    def test_exposes_chain_link(self):
        inner = _SizePredicate(1)
        assert ToolLatencyPredicate(inner, 0.0)._predicate is inner


class TestProbeTaskSpec:
    def test_oracle_kind_requires_app_and_decompiler(self):
        with pytest.raises(ValueError):
            ProbeTaskSpec(kind="oracle", app_bytes=None, decompiler=None)

    def test_callable_kind_requires_predicate(self):
        with pytest.raises(ValueError):
            ProbeTaskSpec(kind="callable")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProbeTaskSpec(kind="magic", predicate=_SizePredicate(1))

    def test_bad_granularity_rejected(self, pair):
        benchmark, instance = pair
        with pytest.raises(ValueError):
            ProbeTaskSpec(
                app_bytes=serialize_application(benchmark.app),
                decompiler=instance.decompiler,
                granularity="method",
            )

    def test_round_trips_through_pickle(self, pair):
        benchmark, instance = pair
        spec = ProbeTaskSpec(
            app_bytes=serialize_application(benchmark.app),
            decompiler=instance.decompiler,
            granularity="item",
            chaos=FaultPlan(kind="flaky", rate=0.1, seed=3),
            chaos_key="b0:d0:our-reducer:item",
            retries=4,
            tool_latency_seconds=0.01,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_callable_spec_round_trips(self):
        spec = ProbeTaskSpec(kind="callable", predicate=_SizePredicate(3))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestBuildWorkerPredicate:
    def test_oracle_rebuild_matches_parent_predicate(self, pair):
        """A worker's rebuilt chain answers exactly like the parent's."""
        from repro.decompiler.oracle import build_reduction_problem

        benchmark, instance = pair
        problem = build_reduction_problem(benchmark.app, instance.decompiler)
        spec = ProbeTaskSpec(
            app_bytes=serialize_application(benchmark.app),
            decompiler=instance.decompiler,
            granularity="item",
        )
        rebuilt = build_worker_predicate(spec)
        universe = frozenset(problem.variables)
        half = frozenset(sorted(universe, key=repr)[: len(universe) // 2])
        for probe in (universe, half):
            assert rebuilt(probe) == problem.predicate(probe)

    def test_callable_spec_ships_the_predicate(self):
        spec = ProbeTaskSpec(kind="callable", predicate=_SizePredicate(2))
        rebuilt = build_worker_predicate(spec)
        assert rebuilt(frozenset({"a", "b", "c"})) is True
        assert rebuilt(frozenset({"a"})) is False

    def test_resilience_layer_added_for_chaos(self):
        spec = ProbeTaskSpec(
            kind="callable",
            predicate=_SizePredicate(1),
            chaos=FaultPlan(kind="flaky", rate=0.5, seed=11),
            chaos_key="k",
            retries=16,
        )
        rebuilt = build_worker_predicate(spec)
        assert isinstance(rebuilt, ResilientPredicate)
        # Retries absorb the transient faults: the truth comes through.
        assert rebuilt(frozenset({"x"})) is True

    def test_latency_layer_sits_innermost(self):
        spec = ProbeTaskSpec(
            kind="callable",
            predicate=_SizePredicate(1),
            retries=2,
            tool_latency_seconds=0.001,
        )
        rebuilt = build_worker_predicate(spec)
        assert isinstance(rebuilt, ResilientPredicate)
        assert isinstance(rebuilt._predicate, ToolLatencyPredicate)

    def test_zero_latency_adds_no_layer(self):
        spec = ProbeTaskSpec(
            kind="callable", predicate=_SizePredicate(1), retries=2
        )
        rebuilt = build_worker_predicate(spec)
        assert isinstance(rebuilt._predicate, _SizePredicate)


class TestEvaluateBatchProcessBackend:
    def test_requires_a_task_spec(self, pool):
        wrapped = InstrumentedPredicate(_SizePredicate(1))
        with pytest.raises(ValueError, match="task_spec"):
            wrapped.evaluate_batch([frozenset({"a"})], executor=pool)

    def test_commits_like_the_thread_backend(self, pool):
        spec = ProbeTaskSpec(kind="callable", predicate=_SizePredicate(2))
        wrapped = InstrumentedPredicate(
            _SizePredicate(2), cost_per_call=33.0, task_spec=spec
        )
        batch = [frozenset({"a"}), frozenset({"a", "b"}),
                 frozenset({"a", "b", "c"})]
        outcomes = wrapped.evaluate_batch(batch, executor=pool)
        assert outcomes == [False, True, True]
        assert wrapped.calls == 3
        assert wrapped.virtual_now() == 33.0  # one charge per round
        # Everything landed in the memo: a repeat round is free.
        again = wrapped.evaluate_batch(batch, executor=pool)
        assert again == outcomes
        assert wrapped.calls == 3

    def test_worker_exception_relayed_at_commit(self, pool):
        spec = ProbeTaskSpec(kind="callable", predicate=_Crasher())
        wrapped = InstrumentedPredicate(
            _Crasher(), cost_per_call=33.0, task_spec=spec
        )
        with pytest.raises(RuntimeError, match="boom"):
            wrapped.evaluate_batch(
                [frozenset({"BOOM"}), frozenset({"b"})], executor=pool
            )
        # The raising probe sat at position 0: nothing committed.
        assert wrapped.calls == 0
        assert wrapped.virtual_now() == 0.0


class TestEvaluateBatchThreadBackend:
    def test_worker_counters_land_exactly_once(self):
        """A pool thread's probe counters reach the caller's scoped
        registry and the global registry once each: the probe must not
        forward them itself before the parent folds its delta in."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.observability import get_metrics, scoped_metrics

        chain = build_chain(
            _SizePredicate(1),
            Budget(),
            chaos=FaultPlan(kind="flaky", rate=0.5, seed=11),
            chaos_key="k",
            retries=16,
        )
        wrapped = InstrumentedPredicate(chain)
        global_retries = get_metrics().counter("predicate.retries")
        before = global_retries.value
        with ThreadPoolExecutor(max_workers=4) as executor, (
            scoped_metrics()
        ) as scoped:
            wrapped.evaluate_batch(
                [frozenset({i}) for i in range(8)], executor=executor
            )
        assert chain.retries > 0
        assert scoped.counter_values()["predicate.retries"] == chain.retries
        assert global_retries.value - before == chain.retries


class _Crasher:
    """Picklable predicate that raises on inputs containing 'BOOM'."""

    def __call__(self, sub_input) -> bool:
        if "BOOM" in sub_input:
            raise RuntimeError("boom")
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, _Crasher)

    def __hash__(self) -> int:
        return hash("_Crasher")


def _comparable(outcome):
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    # Worker replica chains keep their own memo/retry counters, so the
    # telemetry dict legitimately differs between backends; everything
    # result-bearing must not.
    fields.pop("metrics")
    return fields


def _run(pair, store=None, **knobs):
    benchmark, instance = pair
    config = ExperimentConfig(strategies=("our-reducer",), **knobs)
    return run_instance(
        benchmark, instance, "our-reducer", config, store=store
    )


class TestBackendDifferential:
    """process == thread == sequential, on everything result-bearing."""

    @pytest.mark.parametrize("width", [2, 4])
    def test_clean_runs_identical_across_backends(self, pair, width):
        seq = _run(pair)
        thread = _run(pair, speculate=width)
        process = _run(pair, speculate=width, probe_backend="process")
        assert _comparable(process) == _comparable(thread)
        assert process.final_bytes == seq.final_bytes
        assert process.final_classes == seq.final_classes
        assert process.status == seq.status == "complete"

    @pytest.mark.parametrize("width", [2, 4])
    def test_chaos_runs_identical_results(self, pair, width):
        """Truth-preserving chaos: worker fault schedules differ from
        the parent's, but retries recover the same outcomes, so the
        reduction result must not move."""
        chaos = dict(chaos=FaultPlan(kind="flaky", rate=0.1, seed=7),
                     retries=8)
        seq = _run(pair, **chaos)
        process = _run(
            pair, speculate=width, probe_backend="process", **chaos
        )
        assert process.final_bytes == seq.final_bytes
        assert process.final_classes == seq.final_classes
        assert process.status == seq.status == "complete"
        assert process.metrics.get("speculate.rounds", 0) >= 1

    def test_warm_and_cold_store_identical(self, pair, tmp_path):
        from repro.parallel import open_store

        with open_store(tmp_path / "thread") as thread_store:
            thread_cold = _run(pair, store=thread_store, speculate=4)
            thread_warm = _run(pair, store=thread_store, speculate=4)
        with open_store(tmp_path / "proc") as process_store:
            process_cold = _run(
                pair, store=process_store, speculate=4,
                probe_backend="process",
            )
            process_warm = _run(
                pair, store=process_store, speculate=4,
                probe_backend="process",
            )
        assert _comparable(process_cold) == _comparable(thread_cold)
        assert _comparable(process_warm) == _comparable(thread_warm)
        # A warm store answers every probe: zero fresh calls.
        assert process_warm.predicate_calls == 0
        assert process_warm.simulated_seconds == 0.0

    def test_limiting_budget_still_serializes(self, pair):
        """speculation_allowed must downgrade the process backend too:
        the anytime partial result equals the sequential run's."""
        seq = _run(pair, budget_calls=5)
        process = _run(
            pair, budget_calls=5, speculate=4, probe_backend="process"
        )
        assert seq.status == "partial"
        assert process.metrics.get("speculate.budget_serialized") == 1
        assert "speculate.rounds" not in process.metrics
        assert _comparable(process) == _comparable(seq)

    def test_ledger_parity_with_thread_backend(self, pair):
        """The provenance ledger reads identically across backends on
        every deterministic field."""

        def ledger(backend):
            with tracing_session() as (tracer, _):
                _run(pair, speculate=4, probe_backend=backend)
                return [
                    (
                        e["key"], e["cache"], e["outcome"],
                        e["virtual_charge"], e.get("round"),
                        e.get("batch_pos"),
                    )
                    for e in tracer.raw_events()
                    if e["type"] == "probe"
                ]

        assert ledger("process") == ledger("thread")

    def test_debloat_runs_identical_across_backends(self, debloat_pair):
        """Workers rebuild the debloat scenario's coverage oracle from
        the spec, so its process runs complete like thread runs."""
        seq = _run(debloat_pair)
        thread = _run(debloat_pair, speculate=2)
        process = _run(debloat_pair, speculate=2, probe_backend="process")
        assert _comparable(process) == _comparable(thread)
        assert process.status == "complete"
        assert process.final_bytes == seq.final_bytes

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_emits_worker_spans(self, pair, backend):
        with tracing_session() as (tracer, _):
            _run(pair, speculate=4, probe_backend=backend)
            events = tracer.events()
        adopted = [
            e for e in events
            if e.name == "predicate.call" and e.attrs.get("backend") == backend
        ]
        assert adopted, "no adopted worker spans in the trace"
        if backend == "process":
            assert all(e.worker.startswith("p") for e in adopted)
        span_ids = {e.span_id for e in events}
        assert all(e.parent_id in span_ids for e in adopted)


@pytest.fixture(scope="module")
def tiny_pair():
    benchmark = build_corpus(CorpusConfig.tiny())[0]
    assert benchmark.benchmark_id == "b000" and benchmark.instances
    return benchmark, benchmark.instances[0]


class TestLedgerMatchesCounters:
    """The probe ledger and the counters tell one story on every path.

    Sequential calls and batched rounds share one answer step and one
    commit step, so on each backend, with a cold or a warm store, the
    ledger's fresh and store events, virtual charges and retries sum to
    what the counters and the outcome report — under a seeded flaky
    oracle, so retries actually happen.
    """

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_ledger_sums_equal_counters(
        self, tiny_pair, pool, tmp_path, backend, warm
    ):
        from repro.parallel import open_store

        knobs = dict(
            chaos=FaultPlan(kind="flaky", rate=0.3, seed=0), retries=8
        )
        if backend != "sequential":
            knobs.update(speculate=2, probe_backend=backend)
        benchmark, instance = tiny_pair
        config = ExperimentConfig(strategies=("our-reducer",), **knobs)
        executor = pool if backend == "process" else None
        with open_store(tmp_path / "store") as store:
            if warm:
                run_instance(
                    benchmark, instance, "our-reducer", config, store=store,
                    probe_executor=executor,
                )
            with tracing_session() as (tracer, metrics):
                outcome = run_instance(
                    benchmark, instance, "our-reducer", config, store=store,
                    probe_executor=executor,
                )
                probes = [
                    e for e in tracer.raw_events() if e["type"] == "probe"
                ]
                counters = metrics.counter_values()
        assert outcome.status == "complete"
        fresh = [
            p for p in probes
            if p["cache"] == "fresh" and not p.get("discarded")
        ]
        assert (
            len(fresh)
            == outcome.predicate_calls
            == counters.get("predicate.calls", 0)
        )
        assert sum(p["cache"] == "store" for p in probes) == counters.get(
            "predicate.store_hits", 0
        )
        assert (
            sum(p["virtual_charge"] for p in probes)
            == outcome.simulated_seconds
        )
        retries = counters.get("predicate.retries", 0)
        assert sum(p.get("retries", 0) for p in probes) == retries
        if warm:
            assert outcome.predicate_calls == 0 and not fresh
        else:
            # Seed 0's first draw is a fault, so the parent's chain and
            # every worker's fresh replica retry at least once.
            assert retries >= 1


    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_exhausted_retries_land_in_the_ledger(
        self, tiny_pair, pool, backend
    ):
        """A probe whose retries run out is in the ledger: an error
        event with the retries it spent, and no fresh call."""
        knobs = dict(
            chaos=FaultPlan(kind="flaky", rate=0.6, seed=0), retries=1,
            keep_going=True,
        )
        if backend != "sequential":
            knobs.update(speculate=2, probe_backend=backend)
        benchmark, instance = tiny_pair
        config = ExperimentConfig(strategies=("our-reducer",), **knobs)
        executor = pool if backend == "process" else None
        with tracing_session() as (tracer, metrics):
            outcome = run_instance(
                benchmark, instance, "our-reducer", config,
                probe_executor=executor,
            )
            probes = [e for e in tracer.raw_events() if e["type"] == "probe"]
            spans = tracer.events()
            counters = metrics.counter_values()
        assert outcome.status == "error"
        errors = [p for p in probes if p["cache"] == "error"]
        # One predicate.call span per physical probe; a failed one
        # carries no outcome.
        failed = [
            e for e in spans
            if e.name == "predicate.call" and e.attrs.get("outcome") is None
        ]
        assert errors and len(errors) == len(failed)
        assert all(
            p["error"] and p["outcome"] is None and p["virtual_charge"] == 0
            for p in errors
        )
        assert sum(p.get("retries", 0) for p in probes) == counters.get(
            "predicate.retries", 0
        )
        fresh = [
            p for p in probes
            if p["cache"] == "fresh" and not p.get("discarded")
        ]
        assert len(fresh) == counters.get("predicate.calls", 0)


class TestProbePoolGuards:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            spawn_pool(0)

    def test_unknown_backend_rejected_by_probe_pool(self):
        from repro.harness.experiments import probe_pool

        with pytest.raises(ValueError, match="fiber"):
            config = ExperimentConfig(speculate=4, probe_backend="fiber")
            probe_pool(config)

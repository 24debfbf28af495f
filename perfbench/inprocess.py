"""The in-process workloads: the reducer runs in the benchmark process.

Every workload calls ``run_instance`` with ``our-reducer`` once per
instance, in sequence, and times each call; the calibration kernel of
:mod:`perfbench.stats` runs between the calls, and the reported times
are scaled to the reference host speed.  The timed region repeats
whole passes over the instance list until ``--seconds`` have passed
(at least one pass); every pass must reach the same outputs.

- ``cold-corpus``: the default ``ExperimentConfig`` with a fresh,
  empty sharded store attached for each pass.
- ``warm-rerun``: set-up primes a store with one cold pass (through the
  process-parallel corpus scheduler, on every CPU); the timed passes
  must then be served entirely from that store.
- ``speculate-cold``: the first half of the corpus, ``speculate=2``
  with the process probe backend, one probe pool shared by all
  instances and warmed during set-up, a fresh store per pass.

The traced run (``--trace 1``) makes the same untraced passes, then
one more pass with the layer wrappers installed.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.harness import experiments
from repro.harness.experiments import ExperimentConfig, InstanceOutcome
from repro.parallel.scheduler import StoreSpec, run_scheduled_corpus_experiment
from repro.parallel.store import open_store

from perfbench import corpus
from perfbench.certify import SolutionCapture, certify
from perfbench.layers import LayerTracer
from perfbench.stats import (
    geo_mean, kernel_readings, kernel_seconds, peak_rss_mb, quantile,
    ratio, scaled, usable_cpus,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Calibration-kernel readings whose median scales one call.
KERNEL_WINDOW = 10


@dataclass(frozen=True)
class Spec:
    speculate: int = 1
    warm: bool = False
    #: Instances used: the first ``limit`` strata (None: all).
    limit: Optional[int] = None


SPECS = {
    "cold-corpus": Spec(),
    "warm-rerun": Spec(warm=True),
    "speculate-cold": Spec(speculate=2, limit=corpus.CORPUS_SIZE // 2),
}


@dataclass
class Pass:
    """One timed pass over the instance list."""

    #: Wall seconds of each call, raw and scaled to the reference speed.
    walls: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    #: Calibration-kernel readings: before the first call and after each.
    kernels: List[float] = field(default_factory=list)
    outcomes: List[InstanceOutcome] = field(default_factory=list)
    solutions: List[Any] = field(default_factory=list)
    wall_s: float = 0.0


class Prepared:
    """What one set-up leaves for the timed region."""

    def __init__(self, spec: Spec, seed: int, workdir: str) -> None:
        self.spec = spec
        self.workdir = workdir
        self._stores = 0
        self.config = ExperimentConfig(
            speculate=spec.speculate,
            probe_backend="process" if spec.speculate > 1 else "thread",
        )
        self.instances = corpus.build_corpus(seed, limit=spec.limit)
        self.pool = experiments.probe_pool(self.config)
        self.store = None
        self.priming: List[InstanceOutcome] = []
        try:
            if self.pool is not None:
                # Spawn and import the workers before anything is timed.
                benchmark, instance = corpus.tiny_apps(seed, 1, 10_000)[0]
                experiments.run_instance(
                    benchmark, instance, "our-reducer", self.config,
                    probe_executor=self.pool,
                )
            if spec.warm:
                # One cold pass over the instances, on every CPU.
                path = os.path.join(workdir, "warm-store")
                self.priming = run_scheduled_corpus_experiment(
                    [replace(b, instances=[i]) for b, i in self.instances],
                    ExperimentConfig(strategies=("our-reducer",)),
                    jobs=usable_cpus(),
                    store_spec=StoreSpec(path),
                )
                self.store = open_store(path)
        except BaseException:
            self.close()
            raise

    def pass_store(self):
        """The primed store when there is one, else a fresh empty one."""
        if self.store is not None:
            return self.store
        self._stores += 1
        return open_store(os.path.join(self.workdir, f"store-{self._stores}"))

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


def run_pass(prepared: Prepared, store, capture: SolutionCapture) -> Pass:
    result = Pass()
    start = time.perf_counter()
    result.kernels.append(kernel_seconds())
    for benchmark, instance in prepared.instances:
        before = time.perf_counter()
        outcome = experiments.run_instance(
            benchmark, instance, "our-reducer", prepared.config, store,
            probe_executor=prepared.pool,
        )
        result.walls.append(time.perf_counter() - before)
        result.kernels.append(kernel_seconds())
        result.outcomes.append(outcome)
        result.solutions.append(capture.take_one())
    result.wall_s = time.perf_counter() - start
    # Kernel readings i and i+1 bracket call i; a window of them evens
    # out the noise of single readings and still follows the host.
    reach = KERNEL_WINDOW // 2
    result.scaled = [
        scaled(wall, result.kernels[max(0, i - reach + 1):i + reach + 1])
        for i, wall in enumerate(result.walls)
    ]
    return result


def _timed_passes(prepared: Prepared, seconds: float, capture) -> List[Pass]:
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        store = prepared.pass_store()
        try:
            passes.append(run_pass(prepared, store, capture))
        finally:
            if store is not prepared.store:
                store.close()
    return passes


def _output(outcome: InstanceOutcome) -> Tuple[int, int, str]:
    return outcome.final_bytes, outcome.final_classes, outcome.status


def _same_output(other: Pass, k: int, first: Pass) -> bool:
    return other.solutions[k] == first.solutions[k] and _output(
        other.outcomes[k]
    ) == _output(first.outcomes[k])


def check(prepared: Prepared, passes: List[Pass]) -> List[str]:
    """Failures among the first pass's outputs and every later pass.

    The first pass is certified from outside; every other pass (the
    priming pass and the traced one included) must reach the same
    solutions, and the timed passes must charge the same oracle work.
    """
    failures: List[str] = []
    first = passes[0]
    for k, (benchmark, instance) in enumerate(prepared.instances):
        outcome, captured = first.outcomes[k], first.solutions[k]
        label = f"{benchmark.benchmark_id}/{instance.decompiler}"
        if outcome.status != "complete":
            failures.append(f"{label}: status {outcome.status}")
            continue
        if captured is None:
            failures.append(f"{label}: no solution captured")
            continue
        problems = certify(
            benchmark.app, instance.decompiler, captured[1],
            final_bytes=outcome.final_bytes,
        )
        if prepared.spec.warm and outcome.predicate_calls:
            problems.append(f"{outcome.predicate_calls} oracle calls")
        for other in passes[1:]:
            if not _same_output(other, k, first):
                problems.append("passes disagree")
                break
            if other.outcomes[k].predicate_calls != outcome.predicate_calls:
                problems.append("oracle calls differ between passes")
                break
        if prepared.priming and (
            _output(prepared.priming[k]) != _output(outcome)
        ):
            problems.append("output differs from the priming pass")
        failures += [f"{label}: {p}" for p in problems]
    return failures


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Dict[str, Any]:
    """One run of an in-process workload; see :func:`perfbench.run.main`."""
    spec = SPECS[name]
    setups: List[float] = []
    raw_setups: List[float] = []
    prepared: Optional[Prepared] = None
    for attempt in range(SETUPS):
        if prepared is not None:
            prepared.close()
        kernels = kernel_readings()
        start = time.perf_counter()
        prepared = Prepared(
            spec, seed, os.path.join(workdir, f"setup-{attempt}")
        )
        raw_setups.append(time.perf_counter() - start)
        setups.append(scaled(raw_setups[-1], kernels + kernel_readings()))
    gc.collect()
    timed = time.perf_counter()
    try:
        with SolutionCapture() as capture:
            passes = _timed_passes(prepared, seconds, capture)
            traced_at = time.perf_counter()
            traced = _traced_pass(prepared, seed, capture) if trace else None
        checked_at = time.perf_counter()
        failures = check(prepared, passes + ([traced["pass"]] if traced else []))
    finally:
        prepared.close()
    phases = {
        "setups_s": sum(raw_setups),
        "timed_s": traced_at - timed,
        "traced_s": checked_at - traced_at,
        "check_s": time.perf_counter() - checked_at,
    }

    first = passes[0]
    walls = [w for p in passes for w in p.walls]
    scaled_walls = [w for p in passes for w in p.scaled]
    attempted = len(first.outcomes)
    failed = len({f.split(":", 1)[0] for f in failures})
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": {"instances": attempted, "passes": len(passes)},
        "phases": phases,
        "metrics": {
            "setup_s": (statistics.median(setups), len(setups)),
            "instance_p50_s": (quantile(scaled_walls, 0.5), len(walls)),
            "instance_p75_s": (quantile(scaled_walls, 0.75), len(walls)),
            "instances_per_s": (len(walls) / sum(scaled_walls), len(walls)),
            "rel_bytes_geo": (
                geo_mean([o.relative_bytes for o in first.outcomes]),
                attempted,
            ),
            "peak_rss_mb": (peak_rss_mb(), 1),
        },
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "instance_p50_s": quantile(walls, 0.5),
            "instance_p75_s": quantile(walls, 0.75),
            "instances_per_s": len(walls) / sum(walls),
            "kernel_ms": 1000 * statistics.median(
                [k for p in passes for k in p.kernels]
            ),
        },
        "deterministic": deterministic(first.outcomes),
    }
    if traced is not None:
        result["layers"] = _layer_metrics(
            traced, first.outcomes,
            sum(scaled_walls) / len(passes), result["raw"]["kernel_ms"],
        )
    return result


def deterministic(outcomes: List[InstanceOutcome]) -> Dict[str, float]:
    """The seed-determined figures of one pass."""
    return {
        "oracle_calls": sum(o.predicate_calls for o in outcomes),
        "sim_s": sum(o.simulated_seconds for o in outcomes),
        "rel_bytes_geo": geo_mean([o.relative_bytes for o in outcomes]),
    }


def _traced_pass(prepared: Prepared, seed: int, capture) -> Dict[str, Any]:
    generation = LayerTracer()
    with generation:
        corpus.build_corpus(seed, limit=prepared.spec.limit)
    store = prepared.pass_store()
    tracer = LayerTracer()
    try:
        with tracer:
            traced = run_pass(prepared, store, capture)
    finally:
        if store is not prepared.store:
            store.close()
    return {
        "pass": traced,
        "tracer": tracer,
        "generate_s": generation.total("workloads", "build_benchmark"),
    }


def _sum_metric(outcomes: List[InstanceOutcome], name: str) -> float:
    return sum(o.metrics.get(name, 0) for o in outcomes)


def _layer_metrics(
    traced: Dict[str, Any],
    outcomes: List[InstanceOutcome],
    untraced_pass_s: float,
    kernel_ms: float,
) -> Dict[str, float]:
    tracer: LayerTracer = traced["tracer"]
    wall = traced["pass"].wall_s
    self_s = tracer.layer_self()
    queries = _sum_metric(outcomes, "predicate.queries")
    memo_hits = _sum_metric(outcomes, "predicate.cache_hits") - _sum_metric(
        outcomes, "predicate.store_hits"
    )
    useful = _sum_metric(outcomes, "speculate.probes_useful")
    wasted = _sum_metric(outcomes, "speculate.probes_wasted")
    layers = {
        "workloads.generate_s": traced["generate_s"],
        "decompile.calls": tracer.calls("decompile"),
        "javac.calls": tracer.calls("javac"),
        "materialize.calls": tracer.calls("materialize"),
        "serializer.calls": tracer.calls("serializer"),
        "progression.builds": tracer.calls("progression"),
        "msa.extends": tracer.calls("msa", "MsaSolver.extend"),
        "solver.calls": tracer.calls("msa", "SolverSession.solve"),
        "gbr.iterations": _sum_metric(outcomes, "gbr.iterations"),
        "gbr.probes": _sum_metric(outcomes, "gbr.probes"),
        "gbr.probes_cached": _sum_metric(outcomes, "gbr.probes_cached"),
        "predicate.queries": queries,
        "predicate.memo_hit_ratio": ratio(memo_hits, queries),
        "speculate.batch_s": tracer.total(
            "predicate", "InstrumentedPredicate.evaluate_batch"
        ),
        "store.lookup_s": tracer.total(
            "store", "ShardedPredicateStore.lookup"
        ),
        "store.record_s": tracer.total(
            "store", "ShardedPredicateStore.record"
        ),
        "store.lookups": tracer.calls("store", "ShardedPredicateStore.lookup"),
        "store.records": tracer.calls("store", "ShardedPredicateStore.record"),
        "store.hit_ratio": ratio(
            _sum_metric(outcomes, "store.hits"),
            _sum_metric(outcomes, "store.lookups"),
        ),
        "speculate.rounds": _sum_metric(outcomes, "speculate.rounds"),
        "speculate.probes": useful + wasted,
        "speculate.wasted_frac": ratio(wasted, useful + wasted),
        "unattributed_s": wall - sum(self_s.values()),
        # Both sides at the reference speed: the overhead is a ratio of
        # two passes made a minute apart.
        "trace_overhead": sum(traced["pass"].scaled) / untraced_pass_s - 1,
        "host.kernel_ms": kernel_ms,
    }
    for layer in (
        "decompile", "javac", "materialize", "serializer", "constraints",
        "ordering", "progression", "msa", "gbr", "predicate", "harness",
    ):
        layers[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    layers["shares"] = {
        layer: ratio(seconds, wall) for layer, seconds in sorted(
            self_s.items()
        ) if layer != "workloads"
    }
    return layers

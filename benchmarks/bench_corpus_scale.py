"""BENCH_9: the process-parallel corpus scheduler at scale.

Three claims, measured:

1. **Corpus wall speedup.**  On a latency-bound corpus (``--jobs 8``
   worker processes overlapping real per-probe tool latency), the
   scheduler beats its ``jobs=1`` inline run by >= 3x wall clock
   while producing byte-identical per-instance results (everything but
   ``real_seconds`` and the placement-dependent store residency
   counters — see ``outcome_signature``).  Chaos and warm-store lanes
   assert the same identity under fault injection and a shared warm
   predicate store.
2. **Distributional fidelity.**  The ``CorpusConfig.njr()`` profile's
   geo-mean classes / bytes / items / clauses land within tolerance of
   the paper's Table 1 statistics (184 classes, 285 KB, 2.9k items,
   8.7k clauses), checked over a generated sample.
3. **Streaming report.**  Outcomes stream through ``ResultsWriter`` to
   JSONL and ``report_from_results`` reproduces the same aggregates as
   the in-memory outcome list.

Usage::

    PYTHONPATH=src python benchmarks/bench_corpus_scale.py            # measure, write BENCH_9.json
    PYTHONPATH=src python benchmarks/bench_corpus_scale.py --check    # assert committed numbers still hold
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.harness.experiments import (  # noqa: E402
    ExperimentConfig,
    outcome_signature,
    run_corpus_experiment,
)
from repro.harness.report import (  # noqa: E402
    ResultsWriter,
    StreamingReport,
    report_from_results,
)
from repro.parallel.scheduler import (  # noqa: E402
    StoreSpec,
    run_scheduled_corpus_experiment,
)
from repro.resilience import FaultPlan  # noqa: E402
from repro.workloads.corpus import (  # noqa: E402
    PAPER_GEO_BYTES,
    PAPER_GEO_CLASSES,
    PAPER_GEO_CLAUSES,
    PAPER_GEO_ITEMS,
    CorpusConfig,
    build_corpus,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_PATH = os.path.join(HERE, "BENCH_9.json")

#: The latency-bound bench corpus: enough instances to keep 8 workers
#: busy, apps small enough that per-probe CPU stays well under the
#: simulated tool latency (the 1-CPU worst case: all speedup must come
#: from overlapping the sleeps, none from extra cores).
CORPUS_BENCHMARKS = 64
TOOL_LATENCY = 0.02
CORPUS_JOBS = 8

SPEEDUP_GATE = 3.0
FIDELITY_TOLERANCE = 0.12  # geo-means within 12% of the paper's
FIDELITY_SAMPLE = 30


def _bench_corpus():
    config = CorpusConfig(
        num_benchmarks=CORPUS_BENCHMARKS,
        min_classes=10,
        max_classes=24,
        decompilers=("alpha", "beta"),
    )
    return build_corpus(config)


def _bench_config(**overrides) -> ExperimentConfig:
    base = dict(
        strategies=("our-reducer",),
        tool_latency_seconds=TOOL_LATENCY,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def measure_speedup() -> dict:
    corpus = _bench_corpus()
    config = _bench_config()
    instances = sum(len(b.instances) for b in corpus)

    start = time.perf_counter()
    serial = run_corpus_experiment(corpus, config)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_scheduled_corpus_experiment(
        benchmarks=corpus, config=config, jobs=CORPUS_JOBS
    )
    pooled_wall = time.perf_counter() - start

    identical = [outcome_signature(o) for o in serial] == [
        outcome_signature(o) for o in pooled
    ]
    return {
        "benchmarks": len(corpus),
        "instances": instances,
        "corpus_jobs": CORPUS_JOBS,
        "tool_latency_seconds": TOOL_LATENCY,
        "serial_wall_seconds": round(serial_wall, 3),
        "pooled_wall_seconds": round(pooled_wall, 3),
        "speedup": round(serial_wall / pooled_wall, 3),
        "results_identical": identical,
    }


def measure_lanes() -> dict:
    """Chaos and warm-store identity lanes (smaller corpus, no latency)."""
    corpus = build_corpus(
        CorpusConfig(
            num_benchmarks=6, min_classes=8, max_classes=16,
            decompilers=("alpha", "beta"),
        )
    )
    lanes = {}

    chaos_config = _bench_config(
        tool_latency_seconds=0.0,
        chaos=FaultPlan(kind="flaky", rate=0.2, seed=7),
        retries=3,
        keep_going=True,
    )
    serial = run_corpus_experiment(corpus, chaos_config)
    pooled = run_scheduled_corpus_experiment(
        benchmarks=corpus, config=chaos_config, jobs=4
    )
    lanes["chaos_identical"] = [outcome_signature(o) for o in serial] == [
        outcome_signature(o) for o in pooled
    ]

    with tempfile.TemporaryDirectory() as tmp:
        spec = StoreSpec(path=os.path.join(tmp, "store"))
        warm_config = _bench_config(tool_latency_seconds=0.0)
        # Warm the store, then compare a warm serial and a warm pooled run.
        run_scheduled_corpus_experiment(
            benchmarks=corpus, config=warm_config, jobs=1, store_spec=spec
        )
        warm_serial = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=warm_config, jobs=1, store_spec=spec
        )
        warm_pooled = run_scheduled_corpus_experiment(
            benchmarks=corpus, config=warm_config, jobs=4, store_spec=spec
        )
        lanes["warm_store_identical"] = [
            outcome_signature(o) for o in warm_serial
        ] == [outcome_signature(o) for o in warm_pooled]
        lanes["warm_store_zero_fresh_probes"] = all(
            o.predicate_calls == 0 for o in warm_pooled
        )
    return lanes


def measure_fidelity(sample: int = FIDELITY_SAMPLE) -> dict:
    from repro.bytecode.constraints import generate_constraints
    from repro.bytecode.items import items_of
    from repro.bytecode.metrics import application_size_bytes
    from repro.workloads.corpus import build_benchmark

    config = CorpusConfig.njr()

    def geo(values):
        return math.exp(statistics.mean(math.log(v) for v in values))

    classes, sizes, items, clauses = [], [], [], []
    for index in range(sample):
        benchmark = build_benchmark(index, config)
        classes.append(len(benchmark.app.classes))
        sizes.append(application_size_bytes(benchmark.app))
        items.append(len(items_of(benchmark.app)))
        clauses.append(len(generate_constraints(benchmark.app).clauses))

    measured = {
        "classes": geo(classes),
        "bytes": geo(sizes),
        "items": geo(items),
        "clauses": geo(clauses),
    }
    targets = {
        "classes": PAPER_GEO_CLASSES,
        "bytes": PAPER_GEO_BYTES,
        "items": PAPER_GEO_ITEMS,
        "clauses": PAPER_GEO_CLAUSES,
    }
    deviations = {
        key: measured[key] / targets[key] - 1.0 for key in targets
    }
    return {
        "sample": sample,
        "geo_means": {k: round(v, 1) for k, v in measured.items()},
        "paper_geo_means": targets,
        "deviations": {k: round(v, 4) for k, v in deviations.items()},
        "within_tolerance": all(
            abs(v) <= FIDELITY_TOLERANCE for v in deviations.values()
        ),
        "tolerance": FIDELITY_TOLERANCE,
    }


def measure_streaming() -> dict:
    corpus = build_corpus(
        CorpusConfig(num_benchmarks=4, min_classes=8, max_classes=14,
                     decompilers=("alpha",))
    )
    config = _bench_config(tool_latency_seconds=0.0)
    with tempfile.TemporaryDirectory() as tmp:
        results_path = os.path.join(tmp, "results.jsonl")
        with ResultsWriter(results_path) as writer:
            count = run_scheduled_corpus_experiment(
                benchmarks=corpus, config=config, jobs=2,
                on_outcome=writer.write, collect=False,
            )
        replayed = report_from_results(results_path)
        reference = StreamingReport()
        for outcome in run_corpus_experiment(corpus, config):
            reference.add(outcome)
        return {
            "rows_streamed": count,
            "replay_matches_inline": replayed.render() == reference.render(),
        }


def run_bench() -> dict:
    print("BENCH_9: corpus scheduler at scale", flush=True)
    speedup = measure_speedup()
    print(
        f"  speedup: {speedup['speedup']}x "
        f"({speedup['serial_wall_seconds']}s -> "
        f"{speedup['pooled_wall_seconds']}s, "
        f"identical={speedup['results_identical']})",
        flush=True,
    )
    lanes = measure_lanes()
    print(f"  lanes: {lanes}", flush=True)
    fidelity = measure_fidelity()
    print(
        f"  fidelity: {fidelity['geo_means']} "
        f"(deviation {fidelity['deviations']})",
        flush=True,
    )
    streaming = measure_streaming()
    print(f"  streaming: {streaming}", flush=True)
    return {
        "bench": "corpus_scale",
        "speedup_gate": SPEEDUP_GATE,
        "speedup": speedup,
        "lanes": lanes,
        "fidelity": fidelity,
        "streaming": streaming,
    }


def check(results: dict) -> list:
    failures = []
    speedup = results["speedup"]
    if speedup["speedup"] < results.get("speedup_gate", SPEEDUP_GATE):
        failures.append(
            f"corpus speedup {speedup['speedup']}x < "
            f"{results.get('speedup_gate', SPEEDUP_GATE)}x gate"
        )
    if not speedup["results_identical"]:
        failures.append("pooled results differ from serial run")
    for lane, passed in results["lanes"].items():
        if not passed:
            failures.append(f"lane failed: {lane}")
    if not results["fidelity"]["within_tolerance"]:
        failures.append(
            f"distributional fidelity out of tolerance: "
            f"{results['fidelity']['deviations']}"
        )
    if not results["streaming"]["replay_matches_inline"]:
        failures.append("streamed report replay diverged")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure and fail if any gate regresses",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=BENCH_PATH,
        help="where to write the measured payload "
        "(default: benchmarks/BENCH_9.json)",
    )
    args = parser.parse_args()

    results = run_bench()
    failures = check(results)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", flush=True)
    if failures:
        prefix = "FAIL" if args.check else "WARNING"
        for failure in failures:
            print(f"{prefix}: {failure}", flush=True)
        return 1
    if args.check:
        print("BENCH_9 gates hold", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

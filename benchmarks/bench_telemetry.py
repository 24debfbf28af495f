"""Telemetry overhead benchmark: tracing-off vs tracing-on corpus runs.

Emits ``BENCH_6.json`` with three lanes over the same seeded corpus of
``our-reducer`` instances (identical final results asserted):

- **tracing_off** — the plain harness, process-global tracer disabled;
  every instrumented call site pays exactly one attribute check.
- **tracing_memory** — a :func:`~repro.observability.tracing_session`
  with in-memory accumulation: full span tree, dual clocks, and the
  probe provenance ledger (one event per physical probe).
- **tracing_sharded** — the same session given a trace path, so it
  streams to per-worker JSONL shard files (what every ``--trace`` run
  does), including the flush-per-line durability write and the metric
  lines appended on exit.

The lanes interleave within each rep; per rep, each tracing lane's wall
time is divided by the *same rep's* tracing-off wall time, and the gate
statistic is the **median ratio** across ``--reps`` reps — a real
regression slows the typical rep, while a scheduler hiccup in any
single rep (in either lane) cannot flip the median.  The headline
``overhead`` is the ratio of min-of-reps walls.

Run it directly (pytest does not collect it — ``testpaths`` excludes
``benchmarks/``)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --out BENCH_6.json

CI regression gate: ``--check BENCH_6.json`` exits non-zero when any
tracing-enabled lane's overhead exceeds ``--tolerance`` (default 5%),
or the per-instance trace volume grows more than 50% over the committed
baseline (telemetry bloat is a regression too — the ledger is meant to
stay physical-probes-only).
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from repro.harness import ExperimentConfig, run_instance
from repro.observability import discover_shards, load_traces, tracing_session
from repro.workloads.corpus import CorpusConfig, build_corpus

SEED = 2021


def _comparable(outcome) -> tuple:
    return (
        outcome.benchmark_id,
        outcome.decompiler,
        outcome.final_bytes,
        outcome.final_classes,
        outcome.status,
        outcome.predicate_calls,
    )


def _run_corpus(pairs, config) -> List:
    return [
        run_instance(benchmark, instance, "our-reducer", config)
        for benchmark, instance in pairs
    ]


def bench_lanes(apps: int, min_classes: int, max_classes: int,
                reps: int) -> Dict:
    corpus = build_corpus(
        CorpusConfig(
            num_benchmarks=apps,
            min_classes=min_classes,
            max_classes=max_classes,
        )
    )
    pairs = [(b, i) for b in corpus for i in b.instances]
    config = ExperimentConfig(strategies=("our-reducer",))

    reference = None
    trace_events = 0
    shard_files = 0

    def check(outcomes):
        nonlocal reference
        shaped = [_comparable(o) for o in outcomes]
        if reference is None:
            reference = shaped
        else:
            assert shaped == reference, "tracing changed the reduction"

    def lane_off() -> None:
        check(_run_corpus(pairs, config))

    def lane_memory() -> None:
        with tracing_session() as (_tracer, _metrics):
            check(_run_corpus(pairs, config))

    def lane_sharded() -> None:
        nonlocal trace_events, shard_files
        workdir = tempfile.mkdtemp(prefix="bench-telemetry-")
        base = f"{workdir}/run.jsonl"
        try:
            with tracing_session(base, label="bench-6"):
                check(_run_corpus(pairs, config))
            shard_files = len(discover_shards(base))
            # The volume gate counts span, ledger and meta lines; the
            # metric lines a session appends on exit stay out of it.
            trace_events = sum(
                event["type"] not in ("counter", "gauge", "histogram")
                for event in load_traces([base])
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # One untimed warm-up (imports, allocator, file-system caches), then
    # the lanes interleave within each rep so machine drift (thermal,
    # noisy neighbours) hits all three equally instead of biasing
    # whichever lane ran last.  The overhead ratio is computed *within*
    # each rep — tracing lane over that same rep's off lane — and the
    # gate takes the median ratio across reps: a real regression slows
    # the typical rep, while a one-off scheduler hiccup only spoils one.
    lanes = [lane_off, lane_memory, lane_sharded]
    for lane in lanes:
        lane()

    def timed(lane) -> float:
        gc.collect()
        start = time.perf_counter()
        lane()
        return time.perf_counter() - start

    best = [float("inf")] * len(lanes)
    ratios: List[List[float]] = [[] for _ in lanes]
    for _ in range(reps):
        walls = [timed(lane) for lane in lanes]
        for index, wall in enumerate(walls):
            best[index] = min(best[index], wall)
            ratios[index].append(wall / walls[0])
    off_wall, memory_wall, sharded_wall = best

    def median(values: List[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def lane_summary(wall: float, lane_ratios: List[float]) -> Dict:
        return {
            "wall_seconds": round(wall, 4),
            # Headline: ratio of noise-floor (min) walls.  Gate input:
            # the *median* same-rep ratio — a real regression slows the
            # typical rep, while a scheduler hiccup in any single rep
            # (in either lane, in either direction) cannot flip it.
            "overhead": round(wall / off_wall - 1.0, 4),
            "overhead_median": round(median(lane_ratios) - 1.0, 4),
        }

    memory = lane_summary(memory_wall, ratios[1])
    sharded = lane_summary(sharded_wall, ratios[2])
    sharded["events"] = trace_events
    sharded["shard_files"] = shard_files
    return {
        "apps": [b.benchmark_id for b in corpus],
        "instances": len(pairs),
        "reps": reps,
        "identical_results": True,
        "tracing_off": {"wall_seconds": round(off_wall, 4)},
        "tracing_memory": memory,
        "tracing_sharded": sharded,
        "max_overhead": max(memory["overhead"], sharded["overhead"]),
        "events_per_instance": round(trace_events / len(pairs), 1),
    }


def check_against_baseline(
    payload: Dict, baseline: Dict, tolerance: float
) -> List[str]:
    """The gate's failures for ``payload`` against a loaded baseline."""
    failures = []
    lanes = payload["telemetry_overhead"]
    for lane in ("tracing_memory", "tracing_sharded"):
        overhead = lanes[lane]["overhead_median"]
        if overhead > tolerance:
            failures.append(
                f"{lane} median overhead {overhead:.1%} exceeds "
                f"{tolerance:.0%} (the typical rep ran that much slower "
                f"than its paired tracing-off rep)"
            )
    old_volume = baseline["telemetry_overhead"]["events_per_instance"]
    new_volume = lanes["events_per_instance"]
    ceiling = old_volume * 1.5
    if new_volume > ceiling:
        failures.append(
            f"trace volume grew: {new_volume} events/instance > "
            f"{ceiling:.1f} (baseline {old_volume}; the probe ledger "
            f"must stay physical-probes-only)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_6.json")
    parser.add_argument("--check", metavar="BASELINE", default=None)
    parser.add_argument("--tolerance", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--apps", type=int, default=2)
    parser.add_argument("--min-classes", type=int, default=30)
    parser.add_argument("--max-classes", type=int, default=50)
    args = parser.parse_args(argv)

    # Read the baseline before anything is written: with the default
    # --out, ``--check BENCH_6.json`` names the file this run replaces.
    baseline = None
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)

    payload = {
        "bench": "telemetry",
        "seed": SEED,
        "telemetry_overhead": bench_lanes(
            args.apps, args.min_classes, args.max_classes, args.reps
        ),
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    lanes = payload["telemetry_overhead"]
    print(
        f"tracing off     : {lanes['tracing_off']['wall_seconds']}s over "
        f"{lanes['instances']} instances (min of {lanes['reps']} reps)"
    )
    print(
        f"tracing memory  : {lanes['tracing_memory']['wall_seconds']}s "
        f"({lanes['tracing_memory']['overhead']:+.1%})"
    )
    print(
        f"tracing sharded : {lanes['tracing_sharded']['wall_seconds']}s "
        f"({lanes['tracing_sharded']['overhead']:+.1%}, "
        f"{lanes['tracing_sharded']['events']} events, "
        f"{lanes['events_per_instance']} per instance, identical results)"
    )
    print(f"wrote {args.out}")

    if baseline is not None:
        failures = check_against_baseline(payload, baseline, args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"regression gate passed against {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``jlreduce`` command-line tool.

Subcommands:

- ``jlreduce demo`` — the paper's Section 2 running example end to end.
- ``jlreduce count FILE.fji`` — type check an FJI file and count its
  valid sub-inputs with the #SAT engine.
- ``jlreduce reduce FILE.fji --keep ITEM ...`` — reduce an FJI program
  to the smallest valid sub-program whose kept-item set contains the
  named items (a containment predicate stands in for the buggy tool;
  item syntax matches the bracket rendering, e.g. ``[A.m()!code]``).
- ``jlreduce bench [--profile small|paper|njr] [--jobs N] [--store P]``
  — run the corpus experiment through the one corpus executor
  (:func:`repro.parallel.scheduler.run_scheduled_corpus_experiment`);
  ``--jobs N`` runs whole instances on N worker processes
  (longest-job-first dispatch, serial-order commit; 0: one per CPU; the
  default 1 runs inline), ``--store`` persists predicate outcomes so
  repeat runs skip fresh invocations.  ``--worker-budget T`` caps
  corpus workers + per-worker probe pools at T live workers total,
  ``--results FILE.jsonl`` streams per-instance outcomes to disk,
  ``--debloat`` adds the coverage-debloating row-group, and
  ``--corpus-dir DIR`` runs a corpus persisted by ``jlreduce corpus
  generate`` from its manifest instead of building one in memory.  The
  corpus source picks the report: ``--corpus-dir`` and ``--debloat``
  print the streaming per-scenario table, an in-memory corpus the
  Section 5 figures.  ``--num-benchmarks N`` overrides the profile's
  corpus size.  The store is the sharded cache tier (lazily-loaded
  hash-selected shard files with compaction; a file at the path is
  refused) with ``--store-shards N`` /
  ``--store-max-entries M`` sizing knobs and ``--store-tenant NAME`` to
  namespace many tenants into one shared warm store.
  Resilience flags: ``--budget-calls`` / ``--budget-seconds`` cap each
  run and yield anytime ``"partial"`` outcomes, ``--retries`` recovers
  transient oracle failures, ``--deadline-seconds`` bounds each call,
  ``--keep-going`` records crashed instances instead of aborting, and
  ``--chaos KIND --chaos-rate P --chaos-seed N`` injects seeded faults
  (the chaos bench mode).  ``--speculate K`` (also on ``reduce``)
  evaluates up to K GBR prefix-search probes concurrently per round
  with byte-identical results; ``--probe-backend process`` (also on
  ``reduce``) runs them on spawn-safe worker processes instead of the
  GIL-bound thread pool, and ``--tool-latency-ms MS`` models the
  paper's external tool as a real per-attempt sleep the concurrent
  probes overlap.
- ``jlreduce corpus generate DIR`` — build a corpus profile and persist
  it (manifest + per-app files) for later ``bench --corpus-dir`` runs.
- ``jlreduce report FILE.jsonl`` — render the paper-style corpus table
  from a streamed ``--results`` file.
- ``jlreduce trace summarize FILE...`` — aggregate JSONL traces written
  by ``--trace`` (per-span totals/mean/p95, counter totals, probe
  ledger, and the slowest per-instance blocks).  All ``trace`` subcommands accept multiple files and globs
  and transparently merge per-worker shard files
  (``FILE.shard-w0.jsonl`` ...) in serial commit order.
- ``jlreduce trace timeline FILE...`` — the merged causal timeline
  (spans indented under parents, both clocks, probes inlined).
- ``jlreduce trace flame FILE...`` — folded-stacks output for
  flamegraph renderers (``--clock wall|virtual``).
- ``jlreduce trace diff A B`` — compare two traces on both clocks
  (wall and simulated) with per-span deltas.
- ``jlreduce trace explain HANDLE FILE...`` — resolve one probe's full
  provenance chain (why it ran, what it cost on both clocks) by
  ``event_id`` or key prefix.
- ``jlreduce trace merge FILE... --out MERGED`` — write the merged
  event stream as one JSONL file.
- ``jlreduce metrics export FILE...`` — metric events as
  Prometheus-style text exposition.
- ``jlreduce serve`` — the reduction-as-a-service job server: an
  asyncio HTTP front-end accepting JSON reduction jobs, multi-tenant
  admission control (per-tenant queues, quotas, weighted fair
  dispatch, 429 backpressure), fan-out to the process pool, one shared
  tenant-namespaced warm store, graceful SIGTERM/SIGINT drain.
- ``jlreduce submit`` — send one job to a running server and wait.
- ``jlreduce loadgen`` — drive a server with a concurrent tenant mix
  and print the measured throughput/latency curve.

``reduce`` and ``bench`` accept ``--trace FILE.jsonl`` (record spans and
metrics for the run; ``bench --jobs N`` with N != 1 streams per-worker
shard files next to it), ``--profile-phases`` (opt-in cProfile hotspot
capture per reduce phase, recorded into the trace), and ``--json``
(machine-readable result on stdout).

Exit status is 0 on success, 1 on user errors (bad file, unknown item),
2 on argument errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlreduce",
        description=(
            "Logical bytecode reduction (PLDI 2021 reproduction): "
            "dependency-aware input reduction via propositional logic "
            "and Generalized Binary Reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's running example")

    count = sub.add_parser(
        "count", help="count valid sub-inputs of an FJI file"
    )
    count.add_argument("file", help="path to an .fji source file")

    # Flags shared by reduce and bench: each names an ExperimentConfig
    # field (or the trace the run writes).
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="write span/metric telemetry for the run as JSONL",
    )
    run_flags.add_argument(
        "--json",
        action="store_true",
        help="print the result as JSON instead of the human-readable "
        "output",
    )
    run_flags.add_argument(
        "--budget-calls",
        type=int,
        metavar="N",
        help="per-run cap on fresh predicate attempts; an exhausted run "
        "returns its best-so-far result (status: partial)",
    )
    run_flags.add_argument(
        "--budget-seconds",
        type=float,
        metavar="S",
        help="per-run cap on simulated seconds (33 s per attempt); an "
        "exhausted run returns its best-so-far result (status: partial)",
    )
    run_flags.add_argument(
        "--speculate",
        type=int,
        default=1,
        metavar="K",
        help="evaluate up to K GBR prefix-search probes concurrently per "
        "round; results are byte-identical to sequential (default 1)",
    )
    run_flags.add_argument(
        "--probe-backend",
        choices=("thread", "process"),
        default="thread",
        help="where speculative probes physically run: 'thread' (GIL-"
        "bound pool) or 'process' (spawn-safe worker processes); "
        "results are byte-identical (default thread)",
    )
    run_flags.add_argument(
        "--profile-phases",
        action="store_true",
        help="capture cProfile hotspot tables of the reduction into the "
        "trace (requires --trace; adds noticeable overhead)",
    )

    # Flags shared by bench and serve: the persistent predicate store.
    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument(
        "--store",
        metavar="PATH",
        help="persistent predicate cache; warm entries skip fresh "
        "predicate invocations.  A directory of hash-selected shard "
        "files (a regular file at PATH is refused)",
    )
    store_flags.add_argument(
        "--store-shards",
        type=int,
        default=None,
        metavar="N",
        help="shard files for a new sharded store (default 16; an "
        "existing store keeps its manifest's count)",
    )
    store_flags.add_argument(
        "--store-max-entries",
        type=int,
        default=None,
        metavar="M",
        help="bound the store's in-memory index to ~M entries; "
        "least-recently-used shards are evicted and re-faulted from "
        "disk on demand (default: unbounded)",
    )

    reduce_cmd = sub.add_parser(
        "reduce",
        parents=[run_flags],
        help="reduce an FJI file around required items",
    )
    reduce_cmd.add_argument("file", help="path to an .fji source file")
    reduce_cmd.add_argument(
        "--keep",
        action="append",
        default=[],
        metavar="ITEM",
        help="item that must survive, e.g. '[A.m()!code]' (repeatable)",
    )

    bench = sub.add_parser(
        "bench",
        parents=[run_flags, store_flags],
        help="run the corpus experiment and print the reports",
    )
    bench.add_argument(
        "--profile",
        choices=("small", "paper", "njr"),
        default="small",
        help="corpus size profile; 'njr' is the 1000-app corpus whose "
        "geo-mean classes/bytes/items/clauses match the paper's Table 1 "
        "(default: small)",
    )
    bench.add_argument(
        "--num-benchmarks",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's corpus size",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for whole-instance runs (longest-job-first "
        "dispatch, serial-order commit; outcomes match --jobs 1; 0: one "
        "per CPU; default 1 runs inline)",
    )
    bench.add_argument(
        "--worker-budget",
        type=int,
        default=None,
        metavar="T",
        help="cap total live workers (corpus workers + their probe "
        "pools) at T so --jobs x --speculate never oversubscribes "
        "(default: no cap)",
    )
    bench.add_argument(
        "--results",
        metavar="FILE.jsonl",
        help="stream per-instance outcomes to FILE as JSONL "
        "(append-ordered, one row per instance)",
    )
    bench.add_argument(
        "--corpus-dir",
        metavar="DIR",
        help="run a corpus persisted by 'jlreduce corpus generate' from "
        "its manifest (apps load lazily; the parent holds no "
        "per-outcome state)",
    )
    bench.add_argument(
        "--debloat",
        action="store_true",
        help="add the coverage-based debloating scenario as a second "
        "row-group (same Problem/predicate interface, observed-coverage "
        "predicate)",
    )
    bench.add_argument(
        "--store-tenant",
        default="",
        metavar="NAME",
        help="namespace store entries under a tenant, so many tenants "
        "can share one warm store without mixing cached outcomes",
    )
    bench.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries per predicate call for transient oracle failures "
        "(timeouts and flaky errors; default 0)",
    )
    bench.add_argument(
        "--deadline-seconds",
        type=float,
        metavar="S",
        help="wall-clock deadline per predicate attempt; overruns count "
        "as transient failures",
    )
    bench.add_argument(
        "--keep-going",
        action="store_true",
        help="record a crashed instance as an error-marked outcome and "
        "finish the rest of the corpus",
    )
    bench.add_argument(
        "--chaos",
        choices=("flaky", "flip", "slow", "crash"),
        metavar="KIND",
        help="inject seeded oracle faults: flaky (transient errors), "
        "flip (wrong answers), slow (stalls), crash (unrecoverable)",
    )
    bench.add_argument(
        "--chaos-rate",
        type=float,
        default=0.2,
        metavar="P",
        help="per-call fault probability for --chaos (default 0.2)",
    )
    bench.add_argument(
        "--chaos-seed",
        type=int,
        default=2021,
        metavar="N",
        help="master seed for the fault schedule (default 2021)",
    )
    bench.add_argument(
        "--tool-latency-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="real milliseconds each fresh predicate attempt sleeps, "
        "modelling the paper's external ~33 s tool; concurrent probes "
        "overlap the sleep (default 0)",
    )

    corpus_cmd = sub.add_parser(
        "corpus", help="generate and persist benchmark corpora"
    )
    corpus_sub = corpus_cmd.add_subparsers(
        dest="corpus_command", required=True
    )
    generate_cmd = corpus_sub.add_parser(
        "generate",
        help="build a corpus profile and persist it (manifest + apps)",
    )
    generate_cmd.add_argument(
        "directory", metavar="DIR", help="output directory for the corpus"
    )
    generate_cmd.add_argument(
        "--profile",
        choices=("small", "paper", "njr"),
        default="njr",
        help="corpus size profile (default: njr)",
    )
    generate_cmd.add_argument(
        "--num-benchmarks",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's corpus size",
    )
    generate_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's master seed (per-benchmark seeds "
        "derive from the benchmark id, so N only relabels the corpus)",
    )

    report_cmd = sub.add_parser(
        "report",
        help="render the paper-style corpus table from streamed results",
    )
    report_cmd.add_argument(
        "results",
        metavar="FILE.jsonl",
        help="results file written by bench --results",
    )

    trace = sub.add_parser("trace", help="inspect JSONL trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_files(cmd):
        cmd.add_argument(
            "files",
            nargs="+",
            metavar="FILE",
            help=".jsonl trace files or globs; per-worker shard files "
            "are discovered and merged automatically",
        )

    summarize_cmd = trace_sub.add_parser(
        "summarize", help="aggregate traces into per-span/counter tables"
    )
    _trace_files(summarize_cmd)
    summarize_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the aggregate summary as JSON",
    )

    timeline_cmd = trace_sub.add_parser(
        "timeline", help="print the merged causal timeline"
    )
    _trace_files(timeline_cmd)
    timeline_cmd.add_argument(
        "--no-probes",
        action="store_true",
        help="omit probe ledger entries from the timeline",
    )
    timeline_cmd.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="truncate the timeline after N lines",
    )

    flame_cmd = trace_sub.add_parser(
        "flame", help="folded-stacks output for flamegraph renderers"
    )
    _trace_files(flame_cmd)
    flame_cmd.add_argument(
        "--clock",
        choices=("wall", "virtual"),
        default="wall",
        help="which clock weights the stacks (default wall)",
    )

    diff_cmd = trace_sub.add_parser(
        "diff", help="compare two runs on both clocks"
    )
    diff_cmd.add_argument(
        "a", metavar="A", help="baseline: a trace file or glob"
    )
    diff_cmd.add_argument(
        "b", metavar="B", help="candidate: a trace file or glob"
    )
    diff_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the diff as JSON",
    )

    explain_cmd = trace_sub.add_parser(
        "explain", help="resolve one probe's full provenance chain"
    )
    explain_cmd.add_argument(
        "handle",
        metavar="HANDLE",
        help="probe event_id (e.g. 'w0:e12') or probe key prefix",
    )
    _trace_files(explain_cmd)

    merge_cmd = trace_sub.add_parser(
        "merge", help="merge shards into one serial-ordered JSONL file"
    )
    _trace_files(merge_cmd)
    merge_cmd.add_argument(
        "--out",
        metavar="MERGED.jsonl",
        help="write the merged stream here (default stdout)",
    )

    metrics_cmd = sub.add_parser(
        "metrics", help="export metrics from JSONL trace files"
    )
    metrics_sub = metrics_cmd.add_subparsers(
        dest="metrics_command", required=True
    )
    export_cmd = metrics_sub.add_parser(
        "export", help="Prometheus text exposition of the trace's metrics"
    )
    _trace_files(export_cmd)
    export_cmd.add_argument(
        "--prefix",
        default="jlreduce",
        help="metric name prefix (default jlreduce)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        parents=[store_flags],
        help="run the reduction-as-a-service asyncio job server",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8437,
        help="listen port; 0 picks a free port (default 8437)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="pool workers == max concurrently running jobs (default 2)",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="per-tenant queue bound before 429 backpressure "
        "(default 64)",
    )
    serve_cmd.add_argument(
        "--tenant-quota-jobs", type=int, default=None, metavar="N",
        help="per-tenant admission quota: max jobs per session",
    )
    serve_cmd.add_argument(
        "--tenant-quota-seconds", type=float, default=None, metavar="S",
        help="per-tenant admission quota: max simulated seconds",
    )
    serve_cmd.add_argument(
        "--tenant-weight", action="append", default=[], metavar="NAME=W",
        help="fair-dispatch weight override (repeatable, default 1.0)",
    )
    serve_cmd.add_argument(
        "--trace", metavar="FILE.jsonl",
        help="stream the service session's sharded trace here",
    )
    serve_cmd.add_argument(
        "--ready-file", metavar="PATH",
        help="write 'host port' here once listening (CI handshake)",
    )
    serve_cmd.add_argument(
        "--sample-seconds", type=float, default=0.5, metavar="S",
        help="queue-depth gauge sampling period (default 0.5)",
    )

    submit_cmd = sub.add_parser(
        "submit", help="submit one reduction job to a running server"
    )
    submit_cmd.add_argument(
        "--server", default="127.0.0.1:8437", metavar="HOST:PORT"
    )
    submit_cmd.add_argument("--tenant", required=True)
    submit_cmd.add_argument(
        "--benchmark", default="b000", metavar="ID",
        help="workload benchmark id, e.g. b003 (default b000)",
    )
    submit_cmd.add_argument(
        "--profile", default="small",
        help="corpus profile naming the workload (default small)",
    )
    submit_cmd.add_argument(
        "--decompiler", default=None,
        help="decompiler under test (default: first runnable pair "
        "of the benchmark)",
    )
    submit_cmd.add_argument(
        "--strategy", default="our-reducer",
        help="reduction strategy (default our-reducer)",
    )
    submit_cmd.add_argument(
        "--scenario", choices=("reduction", "debloat"),
        default="reduction",
    )
    submit_cmd.add_argument(
        "--app", metavar="FILE",
        help="submit this serialized application instead of a "
        "server-generated workload",
    )
    submit_cmd.add_argument(
        "--app-seed", type=int, default=0, metavar="N",
        help="app seed accompanying --app (default 0)",
    )
    submit_cmd.add_argument(
        "--no-wait", action="store_true",
        help="return after the 202, do not poll for completion",
    )
    submit_cmd.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help=(
            "seconds to poll for completion (default 300; "
            "unused with --no-wait)"
        ),
    )
    submit_cmd.add_argument(
        "--json", action="store_true",
        help="print the final job record as JSON",
    )

    loadgen_cmd = sub.add_parser(
        "loadgen",
        help="drive a running server with a concurrent tenant mix",
    )
    loadgen_cmd.add_argument(
        "--server", default="127.0.0.1:8437", metavar="HOST:PORT"
    )
    loadgen_cmd.add_argument(
        "--jobs", type=int, default=100, metavar="N",
        help="total jobs across all tenants (default 100)",
    )
    loadgen_cmd.add_argument(
        "--concurrency", type=int, default=100, metavar="N",
        help="jobs concurrently in flight (default 100)",
    )
    loadgen_cmd.add_argument(
        "--tenants", default="acme=1,beta=1,gamma=1", metavar="SPEC",
        help="comma-separated name=share mix "
        "(default acme=1,beta=1,gamma=1)",
    )
    loadgen_cmd.add_argument(
        "--profile", default="tiny",
        help="corpus profile for the generated jobs (default tiny)",
    )
    loadgen_cmd.add_argument(
        "--benchmarks", type=int, default=4, metavar="N",
        help="cycle jobs over the profile's first N benchmarks "
        "(default 4)",
    )
    loadgen_cmd.add_argument(
        "--strategy", default="our-reducer",
        help="reduction strategy (default our-reducer)",
    )
    loadgen_cmd.add_argument(
        "--json", action="store_true",
        help="print the measured curve as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _demo()
    if args.command == "count":
        return _count(args.file)
    if args.command == "reduce":
        return _reduce(args)
    if args.command == "bench":
        return _bench(args)
    if args.command == "corpus":
        if args.corpus_command == "generate":
            return _corpus_generate(
                args.directory, args.profile, args.num_benchmarks, args.seed
            )
        raise AssertionError(
            f"unhandled corpus command {args.corpus_command!r}"
        )
    if args.command == "report":
        return _report(args.results)
    if args.command == "trace":
        if args.trace_command == "summarize":
            return _trace_summarize(args.files, args.json)
        if args.trace_command == "timeline":
            return _trace_timeline(args.files, args.no_probes, args.limit)
        if args.trace_command == "flame":
            return _trace_flame(args.files, args.clock)
        if args.trace_command == "diff":
            return _trace_diff(args.a, args.b, args.json)
        if args.trace_command == "explain":
            return _trace_explain(args.handle, args.files)
        if args.trace_command == "merge":
            return _trace_merge(args.files, args.out)
        raise AssertionError(f"unhandled trace command {args.trace_command!r}")
    if args.command == "metrics":
        if args.metrics_command == "export":
            return _metrics_export(args.files, args.prefix)
        raise AssertionError(
            f"unhandled metrics command {args.metrics_command!r}"
        )
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "loadgen":
        return _loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------


class _ContainmentPredicate:
    """``reduce``'s stand-in oracle: holds iff the kept set covers
    the ``--keep`` targets.

    A module-level class (not a lambda) so it pickles into
    ``--probe-backend process`` worker processes; the FJI item
    dataclasses it holds are frozen and picklable.
    """

    def __init__(self, target) -> None:
        self.target = frozenset(target)

    def __call__(self, kept) -> bool:
        return self.target <= kept

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _ContainmentPredicate)
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash(self.target)


def _demo() -> int:
    from repro.fji.examples import (
        MAIN_CODE,
        figure1_constraints,
        figure1_problem,
        figure1_program,
    )
    from repro.fji.pretty import pretty_program
    from repro.fji.reducer import reduce_program
    from repro.logic import count_models
    from repro.reduction import generalized_binary_reduction

    program = figure1_program()
    constraints = figure1_constraints(include_main_requirement=False)
    print(pretty_program(program))
    print(f"constraints: {len(constraints)}; valid sub-inputs: "
          f"{count_models(constraints):,}")
    result = generalized_binary_reduction(
        figure1_problem(), require_true=frozenset({MAIN_CODE})
    )
    print(f"GBR: {len(result.solution)} items in "
          f"{result.predicate_calls} tool runs\n")
    print(pretty_program(reduce_program(program, result.solution)))
    return 0


def _load_program(path: str):
    from repro.fji import ParseError, TypeError_, check_program, parse_program

    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"jlreduce: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        program = parse_program(source)
        constraints = check_program(program)
    except (ParseError, TypeError_) as exc:
        print(f"jlreduce: {path}: {exc}", file=sys.stderr)
        return None
    return program, constraints


def _count(path: str) -> int:
    from repro.fji.variables import variables_of
    from repro.logic import count_models

    loaded = _load_program(path)
    if loaded is None:
        return 1
    program, constraints = loaded
    variables = variables_of(program)
    print(f"variables    : {len(variables)}")
    print(f"constraints  : {len(constraints)}")
    print(f"graph clauses: {constraints.graph_clause_fraction():.1%}")
    print(f"valid inputs : {count_models(constraints):,} "
          f"of {2 ** len(variables):,}")
    return 0


def _experiment_config(args):
    """The run's :class:`ExperimentConfig` from ``reduce``/``bench`` flags,
    or None after printing why a flag is refused.

    The flags go through :func:`config_from_payload`, the path a service
    job's ``config`` object takes, so a bad value is refused with the
    same message (naming field and flag) either way.
    """
    from repro.harness.experiments import (
        CONFIG_PAYLOAD_FIELDS,
        ExperimentConfig,
        config_from_payload,
    )

    flags = vars(args)
    payload = {
        name: flags[name] for name in CONFIG_PAYLOAD_FIELDS if name in flags
    }
    if flags.get("chaos") is not None:
        payload["chaos"] = {
            "kind": args.chaos, "rate": args.chaos_rate, "seed": args.chaos_seed
        }
    if "tool_latency_ms" in flags:
        payload["tool_latency_seconds"] = args.tool_latency_ms / 1000.0
    try:
        if args.profile_phases and not args.trace:
            raise ValueError("--profile-phases needs --trace (profiles are "
                             "recorded into the trace)")
        base = ExperimentConfig(
            tenant=flags.get("store_tenant", ""),
            worker_budget=flags.get("worker_budget"),
        )
        return config_from_payload(payload, base=base)
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return None


def _open_store(args):
    """The store the ``--store*`` flags name, opened; None without
    ``--store``.  Raises ``ValueError`` when it cannot be opened."""
    if not args.store:
        return None
    from repro.parallel import DEFAULT_SHARDS, open_store

    shards = DEFAULT_SHARDS if args.store_shards is None else args.store_shards
    try:
        return open_store(
            args.store, shards=shards, max_entries=args.store_max_entries
        )
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot open store {args.store}: {exc}") from None


def _reduce(args) -> int:
    from contextlib import nullcontext

    from repro.fji.pretty import pretty_program
    from repro.fji.reducer import reduce_program
    from repro.fji.variables import variables_of
    from repro.harness.experiments import probe_pool
    from repro.observability import profiled_phase
    from repro.parallel.procpool import ProbeTaskSpec, build_chain
    from repro.reduction import ReductionProblem, generalized_binary_reduction
    from repro.reduction.predicate import InstrumentedPredicate

    path = args.file
    loaded = _load_program(path)
    if loaded is None:
        return 1
    program, constraints = loaded
    variables = variables_of(program)
    by_name = {str(v): v for v in variables}
    required = set()
    for name in args.keep:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            print(f"jlreduce: unknown item {name!r}; known items: {known}",
                  file=sys.stderr)
            return 1
        required.add(by_name[name])

    config = _experiment_config(args)
    if config is None:
        return 1
    target = frozenset(required)
    containment = _ContainmentPredicate(target)
    predicate = build_chain(containment, config.budget())
    if config.speculate > 1:
        # GBR's _instrument passes a pre-built InstrumentedPredicate
        # through, so this is where the picklable task spec (the raw
        # containment oracle — a limiting budget serializes speculation
        # before the pool sees a task) attaches to the cache layer.
        predicate = InstrumentedPredicate(
            predicate,
            task_spec=ProbeTaskSpec(kind="callable", predicate=containment),
        )
    problem = ReductionProblem(
        variables=variables,
        predicate=predicate,
        constraint=constraints,
        description=path,
    )
    probes = probe_pool(config)

    def run():
        capture = (
            profiled_phase("reduce") if config.profile_phases
            else nullcontext()
        )
        with capture:
            return generalized_binary_reduction(
                problem,
                require_true=target,
                speculate=config.speculate,
                probe_executor=probes,
            )

    try:
        result = _traced(args.trace, f"reduce {path}", run)
    finally:
        if probes is not None:
            probes.shutdown(wait=True)
    if result is None:
        return 1

    if args.json:
        payload = {
            "file": path,
            "keep": sorted(args.keep),
            "total_items": len(variables),
            "kept_items": len(result.solution),
            "solution": sorted(str(v) for v in result.solution),
            "predicate_calls": result.predicate_calls,
            "iterations": result.iterations,
            "elapsed_seconds": result.elapsed_seconds,
            "status": result.status,
            "metrics": result.extras.get("metrics", {}),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        suffix = " (partial: budget exhausted)" if result.is_partial else ""
        print(f"// kept {len(result.solution)} of {len(variables)} items "
              f"in {result.predicate_calls} predicate runs{suffix}")
        print(pretty_program(reduce_program(program, result.solution)))
    return 0


def _bench(args) -> int:
    """``bench``: one corpus run through the corpus executor.

    The corpus source picks the report: a persisted corpus
    (``--corpus-dir``) or the debloating row-group (``--debloat``)
    streams per-scenario rows through a :class:`StreamingReport`, so the
    parent holds no per-outcome state; an in-memory corpus gets the
    Section 5 figures.
    """
    import os

    from repro.harness.report import ResultsWriter, StreamingReport
    from repro.parallel.scheduler import run_scheduled_corpus_experiment
    from repro.reduction import ReductionError
    from repro.resilience import OracleCrash, TransientOracleError
    from repro.workloads.corpus import MANIFEST_NAME, CorpusConfig

    jobs, json_output, corpus_dir = args.jobs, args.json, args.corpus_dir
    if jobs < 0:
        print(f"jlreduce: --jobs must be >= 0, got {jobs}", file=sys.stderr)
        return 1
    if args.num_benchmarks is not None and args.num_benchmarks <= 0:
        print(f"jlreduce: --num-benchmarks must be > 0, got "
              f"{args.num_benchmarks}", file=sys.stderr)
        return 1
    experiment = _experiment_config(args)
    if experiment is None:
        return 1
    if corpus_dir is not None and not os.path.isfile(
        os.path.join(corpus_dir, MANIFEST_NAME)
    ):
        print(
            f"jlreduce: {corpus_dir}: no corpus manifest (persist one "
            "with 'jlreduce corpus generate' first)",
            file=sys.stderr,
        )
        return 1
    streaming = corpus_dir is not None or args.debloat
    if corpus_dir is not None:
        source = {"corpus_path": corpus_dir, "include_debloat": args.debloat}
    else:
        from repro.workloads.corpus import build_corpus

        config = CorpusConfig.named(args.profile)
        if args.num_benchmarks is not None:
            from dataclasses import replace

            config = replace(config, num_benchmarks=args.num_benchmarks)
        if not json_output:
            print(f"building corpus ({args.profile} profile) ...")
        corpus = build_corpus(config)
        if args.debloat:
            from repro.workloads.debloat import add_debloat_instances

            add_debloat_instances(corpus)
        elif not json_output:
            from repro.harness import corpus_statistics, render_statistics

            print(render_statistics(corpus_statistics(corpus)))
            print("\nrunning strategies ...")
        source = {"benchmarks": corpus}
    progress = (
        None if json_output else lambda line: print(f"  {line}")
    )
    report = StreamingReport()

    # The ExitStack closes the store's append descriptors and the
    # results file even when a reduction raises mid-run.
    with ExitStack() as stack:
        try:
            store = _open_store(args)
        except ValueError as exc:
            print(f"jlreduce: {exc}", file=sys.stderr)
            return 1
        if store is not None:
            stack.enter_context(store)
        writer = None
        if args.results:
            try:
                writer = stack.enter_context(ResultsWriter(args.results))
            except OSError as exc:
                print(f"jlreduce: cannot write {args.results}: {exc}",
                      file=sys.stderr)
                return 1

        def on_outcome(outcome):
            report.add(outcome)
            if writer is not None:
                writer.write(outcome)

        def run():
            return run_scheduled_corpus_experiment(
                config=experiment,
                progress=progress,
                jobs=jobs,
                store=store,
                on_outcome=on_outcome,
                collect=json_output or not streaming,
                **source,
            )

        try:
            outcomes = _traced(args.trace, f"bench {args.profile}", run)
        except (ReductionError, OracleCrash, TransientOracleError) as exc:
            print(f"jlreduce: instance failed: {exc}", file=sys.stderr)
            print("jlreduce: rerun with --keep-going to record failed "
                  "instances and finish the corpus", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"jlreduce: {exc}", file=sys.stderr)
            return 1
    if outcomes is None:
        return 1

    if json_output:
        from dataclasses import asdict

        payload = {
            "profile": args.profile,
            "outcomes": [asdict(outcome) for outcome in outcomes],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif streaming:
        print()
        print(report.render())
    else:
        _print_section5(outcomes)
    return 0


def _traced(trace_path: Optional[str], label: str, run):
    """``run()`` under a tracing session when ``trace_path`` is set.

    Events stream to shard files as they finish: worker "main" writes
    the base file, and other workers write ``*.shard-<worker>.jsonl``
    files beside it, which the ``trace`` subcommands discover and
    merge.  The run's metric lines land in the base file when the
    session exits, even if ``run()`` raises.  Returns None when the
    trace file cannot be opened.
    """
    from repro.observability import tracing_session

    if not trace_path:
        return run()
    with ExitStack() as stack:
        try:
            stack.enter_context(tracing_session(trace_path, label))
        except OSError as exc:
            print(f"jlreduce: cannot write {trace_path}: {exc}",
                  file=sys.stderr)
            return None
        return run()


def _corpus_generate(
    directory: str,
    profile: str,
    num_benchmarks: Optional[int],
    seed: Optional[int],
) -> int:
    from repro.workloads.corpus import CorpusConfig, iter_corpus, save_corpus

    if num_benchmarks is not None and num_benchmarks <= 0:
        print(f"jlreduce: --num-benchmarks must be > 0, got "
              f"{num_benchmarks}", file=sys.stderr)
        return 1
    config = CorpusConfig.named(profile)
    overrides = {}
    if num_benchmarks is not None:
        overrides["num_benchmarks"] = num_benchmarks
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    print(f"generating {config.num_benchmarks} benchmarks ({profile} "
          f"profile) -> {directory}")
    done = [0]

    def progress(benchmark):
        done[0] += 1
        if done[0] % 50 == 0:
            print(f"  {done[0]}/{config.num_benchmarks}")

    try:
        save_corpus(iter_corpus(config), directory, progress=progress)
    except OSError as exc:
        print(f"jlreduce: cannot write {directory}: {exc}", file=sys.stderr)
        return 1
    print(f"persisted {done[0]} benchmarks (manifest + apps) in {directory}")
    return 0


def _report(results_path: str) -> int:
    from repro.harness.report import report_from_results

    try:
        report = report_from_results(results_path)
    except OSError as exc:
        print(f"jlreduce: cannot read {results_path}: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"jlreduce: {results_path}: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _print_section5(outcomes) -> None:
    """The paper's Section 5 figures for an in-memory corpus run."""
    from repro.harness import (
        mean_reduction_over_time,
        render_cfd_table,
        render_headline,
        render_lossy_comparison,
        render_timeline,
    )
    from repro.harness.report import by_strategy

    print()
    print(render_headline(outcomes))
    print()
    print(render_lossy_comparison(outcomes))
    print()
    for metric, title in (
        ("time", "Figure 8a-1: time spent (simulated)"),
        ("classes", "Figure 8a-2: final relative size (classes)"),
        ("bytes", "Figure 8a-3: final relative size (bytes)"),
    ):
        print(render_cfd_table(outcomes, metric, title))
        print()
    series = {
        name: mean_reduction_over_time(group)
        for name, group in by_strategy(outcomes).items()
        if name in ("our-reducer", "jreduce")
    }
    print(render_timeline(series))


def _load_merged(patterns: List[str]):
    """Load and merge trace files/globs, or print an error and None."""
    from repro.observability import load_traces

    try:
        return load_traces(patterns)
    except OSError as exc:
        print(f"jlreduce: cannot read trace: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return None


def _trace_summarize(patterns: List[str], json_output: bool = False) -> int:
    from repro.observability import render_summary, summarize

    events = _load_merged(patterns)
    if events is None:
        return 1
    summary = summarize(events)
    if json_output:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _trace_timeline(
    patterns: List[str], no_probes: bool = False, limit: Optional[int] = None
) -> int:
    from repro.observability import render_timeline

    events = _load_merged(patterns)
    if events is None:
        return 1
    print(render_timeline(events, with_probes=not no_probes, limit=limit))
    return 0


def _trace_flame(patterns: List[str], clock: str = "wall") -> int:
    from repro.observability import folded_stacks

    events = _load_merged(patterns)
    if events is None:
        return 1
    print(folded_stacks(events, clock=clock))
    return 0


def _trace_diff(a: str, b: str, json_output: bool = False) -> int:
    from repro.observability import diff_traces, load_traces, render_diff

    sides = []
    for arg in (a, b):
        try:
            sides.append(load_traces([arg]))
        except (OSError, ValueError) as exc:
            print(f"jlreduce: {arg}: {exc}", file=sys.stderr)
            return 1
    diff = diff_traces(sides[0], sides[1], a_label=a, b_label=b)
    if json_output:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
    return 0


def _trace_explain(handle: str, patterns: List[str]) -> int:
    from repro.observability import explain, render_explain

    events = _load_merged(patterns)
    if events is None:
        return 1
    try:
        resolution = explain(events, handle)
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    print(render_explain(resolution))
    return 0


def _trace_merge(patterns: List[str], out: Optional[str] = None) -> int:
    from repro.observability import encode_line

    events = _load_merged(patterns)
    if events is None:
        return 1
    if out is None:
        sys.stdout.writelines(encode_line(event) for event in events)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(encode_line(event) for event in events)
    except OSError as exc:
        print(f"jlreduce: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"merged {len(events)} events into {out}")
    return 0


def _metrics_export(patterns: List[str], prefix: str = "jlreduce") -> int:
    from repro.observability import prometheus_exposition

    events = _load_merged(patterns)
    if events is None:
        return 1
    sys.stdout.write(prometheus_exposition(events, prefix=prefix))
    return 0


def _parse_server(spec: str) -> tuple:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(
            f"jlreduce: --server must be HOST:PORT, got {spec!r}"
        )
    return host, int(port)


def _serve(args) -> int:
    from dataclasses import replace

    from repro.parallel.scheduler import StoreSpec
    from repro.service import ServiceConfig, TenantPolicy
    from repro.service.server import serve

    # Every flag is checked here, before the server opens a socket.
    try:
        default_policy = TenantPolicy(
            max_queue_depth=args.queue_depth,
            max_jobs=args.tenant_quota_jobs,
            max_seconds=args.tenant_quota_seconds,
        )
        policies = {}
        for spec in args.tenant_weight:
            name, _, weight = spec.partition("=")
            try:
                if not name:
                    raise ValueError(spec)
                policies[name] = replace(default_policy, weight=float(weight))
            except ValueError:
                raise ValueError(
                    f"--tenant-weight must be NAME=WEIGHT with WEIGHT > 0, "
                    f"got {spec!r}"
                ) from None
        store = _open_store(args)
        store_spec = None
        if store is not None:
            store.close()
            store_spec = StoreSpec.of(store)
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            store_spec=store_spec,
            default_policy=default_policy,
            policies=policies,
            sample_seconds=args.sample_seconds,
        )
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1

    def _ready(host: str, port: int) -> None:
        print(f"jlreduce serve: listening on {host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")

    try:
        return serve(
            config,
            trace_path=args.trace,
            ready=_ready,
            log=lambda message: print(f"jlreduce serve: {message}",
                                      flush=True),
        )
    except OSError as exc:  # an unwritable --trace, or a taken port
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1


def _submit(args) -> int:
    import base64

    from repro.service import ServiceClient, ServiceError

    host, port = _parse_server(args.server)
    job: dict = {
        "tenant": args.tenant,
        "benchmark_id": args.benchmark,
        "strategy": args.strategy,
        "scenario": args.scenario,
        "profile": args.profile,
    }
    if args.app:
        try:
            with open(args.app, "rb") as handle:
                job["app_b64"] = base64.b64encode(
                    handle.read()
                ).decode("ascii")
        except OSError as exc:
            print(f"jlreduce: cannot read {args.app}: {exc}",
                  file=sys.stderr)
            return 1
        job["app_seed"] = args.app_seed
        if args.decompiler:
            job["decompiler"] = args.decompiler
    elif args.decompiler:
        job["decompiler"] = args.decompiler
    else:
        # Pick a decompiler the requested benchmark actually
        # miscompiles — any other pair has no failure to preserve.
        from repro.service.jobs import workload_pairs

        index = args.benchmark[1:]
        if not (args.benchmark.startswith("b") and index.isdigit()):
            print(f"jlreduce: --benchmark must look like 'b003', got "
                  f"{args.benchmark!r}", file=sys.stderr)
            return 1
        try:
            pairs = [
                pair for pair in workload_pairs(args.profile, int(index) + 1)
                if pair[0] == args.benchmark
            ]
        except ValueError as exc:
            print(f"jlreduce: {exc}", file=sys.stderr)
            return 1
        if not pairs:
            print(
                f"jlreduce: {args.benchmark} has no runnable "
                f"decompiler in profile {args.profile!r}",
                file=sys.stderr,
            )
            return 1
        job["decompiler"] = pairs[0][1]
    client = ServiceClient(host, port)
    try:
        accepted = client.submit(job)
        if args.no_wait:
            record = accepted
        else:
            record = client.wait(accepted["job_id"], timeout=args.timeout)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        status = record.get("status", "queued")
        line = f"job {record['job_id']}: {status}"
        if record.get("latency_seconds") is not None:
            line += f" in {record['latency_seconds']:.3f}s"
        print(line)
        if record.get("error"):
            print(f"  error: {record['error']}")
    return 0 if record.get("status") != "error" else 1


def _loadgen(args) -> int:
    from repro.service.loadgen import build_jobs, run_loadgen

    host, port = _parse_server(args.server)
    tenants = {}
    for spec in args.tenants.split(","):
        name, sep, share = spec.partition("=")
        if not name or (sep and not share.strip().isdigit()):
            print(
                f"jlreduce: bad --tenants entry {spec!r}",
                file=sys.stderr,
            )
            return 1
        tenants[name.strip()] = int(share) if sep else 1
    try:
        jobs = build_jobs(
            tenants,
            args.jobs,
            profile=args.profile,
            benchmarks=args.benchmarks,
            strategy=args.strategy,
        )
        curve = run_loadgen(host, port, jobs, concurrency=args.concurrency)
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(curve, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0 if not curve["errors"] and not curve["gave_up"] else 1
    latency = curve["latency"]
    print(
        f"{curve['completed']}/{curve['jobs']} jobs in "
        f"{curve['wall_seconds']:.1f}s — "
        f"{curve['jobs_per_second']:.2f} jobs/s "
        f"(concurrency {curve['concurrency']})"
    )
    print(
        f"latency p50={latency['p50']:.3f}s p95={latency['p95']:.3f}s "
        f"p99={latency['p99']:.3f}s max={latency['max']:.3f}s"
    )
    for tenant in sorted(curve["per_tenant"]):
        stats = curve["per_tenant"][tenant]
        print(
            f"  {tenant:<14} n={stats['count']:<5} "
            f"p50={stats['p50']:.3f}s p95={stats['p95']:.3f}s"
        )
    if curve["retries_429"]:
        print(f"backpressure: {curve['retries_429']} retried 429s")
    if curve["errors"] or curve["gave_up"]:
        print(
            f"errors={curve['errors']} gave_up={curve['gave_up']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

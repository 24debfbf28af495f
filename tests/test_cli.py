"""Tests for the jlreduce CLI."""

import json
import re

import pytest

from repro.cli import main
from repro.observability import load_trace, summarize

FJI_SOURCE = """
interface I { String m(); }
class A extends Object implements I {
  A() { super(); }
  String m() { return new String(); }
}
new A().m();
"""


@pytest.fixture()
def fji_file(tmp_path):
    path = tmp_path / "program.fji"
    path.write_text(FJI_SOURCE)
    return str(path)


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "6,766" in out
        assert "11 items" in out


class TestCount:
    def test_count(self, fji_file, capsys):
        assert main(["count", fji_file]) == 0
        out = capsys.readouterr().out
        assert "variables    : 6" in out
        assert "valid inputs" in out

    def test_missing_file(self, capsys):
        assert main(["count", "/nonexistent.fji"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_ill_typed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.fji"
        path.write_text("class C extends Nope { C() { super(); } }")
        assert main(["count", str(path)]) == 1
        assert "bad.fji" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.fji"
        path.write_text("class {")
        assert main(["count", str(path)]) == 1


class TestReduce:
    def test_reduce_keeps_named_item(self, fji_file, capsys):
        assert main(["reduce", fji_file, "--keep", "[A.m()!code]"]) == 0
        out = capsys.readouterr().out
        assert "class A extends Object" in out
        assert "String m()" in out
        # The unused interface relation is gone.
        assert "implements I" not in out

    def test_reduce_without_keeps_gives_minimal(self, fji_file, capsys):
        assert main(["reduce", fji_file]) == 0
        out = capsys.readouterr().out
        assert "kept" in out

    def test_unknown_item(self, fji_file, capsys):
        assert main(["reduce", fji_file, "--keep", "[Nope]"]) == 1
        assert "unknown item" in capsys.readouterr().err


class TestReduceJson:
    def test_json_payload_matches_human_output(self, fji_file, capsys):
        assert main(["reduce", fji_file, "--keep", "[A.m()!code]"]) == 0
        human = capsys.readouterr().out
        match = re.search(
            r"kept (\d+) of (\d+) items in (\d+) predicate runs", human
        )
        assert match is not None
        kept, total, calls = map(int, match.groups())

        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept_items"] == kept == len(payload["solution"])
        assert payload["total_items"] == total
        assert payload["predicate_calls"] == calls
        assert payload["keep"] == ["[A.m()!code]"]
        assert "[A.m()!code]" in payload["solution"]
        assert payload["metrics"]["predicate.calls"] == calls


class TestReduceTrace:
    def test_trace_counts_match_printed_calls(self, fji_file, tmp_path,
                                              capsys):
        trace_file = str(tmp_path / "run.jsonl")
        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]",
             "--trace", trace_file]
        ) == 0
        out = capsys.readouterr().out
        match = re.search(r"in (\d+) predicate runs", out)
        assert match is not None
        printed_calls = int(match.group(1))

        events = load_trace(trace_file)
        assert events[0]["type"] == "meta"
        summary = summarize(events)
        assert summary["counters"]["predicate.calls"] == printed_calls
        assert "gbr.run" in summary["spans"]
        assert "progression.build" in summary["spans"]

    def test_unwritable_trace_path_fails_cleanly(self, fji_file, capsys):
        assert main(
            ["reduce", fji_file, "--trace", "/nonexistent-dir/out.jsonl"]
        ) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_trace_composes_with_json(self, fji_file, tmp_path, capsys):
        trace_file = str(tmp_path / "run.jsonl")
        assert main(
            ["reduce", fji_file, "--json", "--trace", trace_file]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = summarize(load_trace(trace_file))
        assert (
            summary["counters"]["predicate.calls"]
            == payload["predicate_calls"]
        )


class TestBenchJson:
    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=2, min_classes=8, max_classes=12
                )
            ),
        )

    def test_bench_json_payload(self, tiny_corpus, capsys):
        assert main(["bench", "--profile", "small", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == "small"
        assert payload["outcomes"]
        outcome = payload["outcomes"][0]
        for key in (
            "benchmark_id", "decompiler", "strategy", "total_bytes",
            "final_bytes", "predicate_calls", "metrics",
        ):
            assert key in outcome
        gbr_runs = [
            o for o in payload["outcomes"] if o["strategy"] == "our-reducer"
        ]
        assert gbr_runs
        assert all(
            o["metrics"]["predicate.calls"] == o["predicate_calls"]
            for o in gbr_runs
        )

    def test_bench_trace_writes_instance_spans(self, tiny_corpus, tmp_path,
                                               capsys):
        trace_file = str(tmp_path / "bench.jsonl")
        assert main(
            ["bench", "--profile", "small", "--json",
             "--trace", trace_file]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = summarize(load_trace(trace_file))
        assert (
            summary["spans"]["instance.run"]["count"]
            == len(payload["outcomes"])
        )
        for phase in ("instance.setup", "instance.reduce",
                      "instance.measure"):
            assert phase in summary["spans"]


class TestBenchParallel:
    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=2, min_classes=8, max_classes=12
                )
            ),
        )

    def _outcomes(self, capsys, *extra_args):
        assert main(["bench", "--json", *extra_args]) == 0
        payload = json.loads(capsys.readouterr().out)
        return payload["outcomes"]

    def test_parallel_matches_serial_except_real_seconds(
        self, tiny_corpus, capsys
    ):
        serial = self._outcomes(capsys)
        parallel = self._outcomes(capsys, "--jobs", "2")
        assert len(serial) == len(parallel)
        for expected, actual in zip(serial, parallel):
            expected.pop("real_seconds")
            actual.pop("real_seconds")
            assert expected == actual

    def test_warm_store_second_run_makes_no_fresh_calls(
        self, tiny_corpus, tmp_path, capsys
    ):
        from repro.harness.experiments import (
            InstanceOutcome,
            outcome_signature,
        )

        def signatures(rows):
            return [outcome_signature(InstanceOutcome(**r)) for r in rows]

        inline = self._outcomes(
            capsys, "--jobs", "1", "--store", str(tmp_path / "inline")
        )
        store_dir = str(tmp_path / "store")
        cold = self._outcomes(capsys, "--jobs", "2", "--store", store_dir)
        assert any(o["predicate_calls"] > 0 for o in cold)
        assert signatures(cold) == signatures(inline)
        warm = self._outcomes(capsys, "--jobs", "2", "--store", store_dir)
        assert all(o["predicate_calls"] == 0 for o in warm)

    def test_negative_jobs_rejected(self, capsys):
        assert main(["bench", "--jobs", "-2"]) == 1
        assert "--jobs" in capsys.readouterr().err


class TestProbeBackendCli:
    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=1, min_classes=8, max_classes=12
                )
            ),
        )

    def _outcomes(self, capsys, *extra_args):
        assert main(["bench", "--json", *extra_args]) == 0
        payload = json.loads(capsys.readouterr().out)
        return payload["outcomes"]

    def test_bench_process_backend_matches_thread(self, tiny_corpus, capsys):
        thread = self._outcomes(capsys, "--speculate", "2")
        process = self._outcomes(
            capsys, "--speculate", "2", "--probe-backend", "process"
        )
        assert len(thread) == len(process)
        for expected, actual in zip(thread, process):
            for key in ("real_seconds", "metrics"):
                expected.pop(key)
                actual.pop(key)
            assert expected == actual

    def test_reduce_process_backend_matches_default(self, fji_file, capsys):
        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]", "--json"]
        ) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]", "--json",
             "--speculate", "2", "--probe-backend", "process"]
        ) == 0
        process = json.loads(capsys.readouterr().out)
        assert process["solution"] == default["solution"]
        assert process["status"] == default["status"]

    def test_unknown_backend_rejected_by_argparse(self, fji_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["reduce", fji_file, "--probe-backend", "fiber"])
        assert excinfo.value.code == 2

    def test_negative_tool_latency_rejected(self, capsys):
        assert main(["bench", "--tool-latency-ms", "-5"]) == 1
        assert "--tool-latency-ms" in capsys.readouterr().err


class TestResilienceCli:
    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=2, min_classes=8, max_classes=12
                )
            ),
        )

    def test_reduce_budget_exhaustion_is_partial(self, fji_file, capsys):
        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]",
             "--budget-calls", "0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "partial"
        # Zero budget: the anytime fallback is the full input.
        assert payload["kept_items"] == payload["total_items"]

    def test_reduce_generous_budget_is_complete(self, fji_file, capsys):
        assert main(
            ["reduce", fji_file, "--keep", "[A.m()!code]",
             "--budget-calls", "1000", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "complete"

    def test_bench_budget_yields_partial_outcomes(self, tiny_corpus, capsys):
        assert main(
            ["bench", "--json", "--budget-calls", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {o["status"] for o in payload["outcomes"]}
        assert "partial" in statuses

    def test_bench_chaos_flaky_with_retries_succeeds(
        self, tiny_corpus, capsys
    ):
        assert main(
            ["bench", "--json", "--chaos", "flaky", "--chaos-rate", "0.2",
             "--chaos-seed", "2021", "--retries", "10", "--keep-going"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"]
        assert all(
            o["status"] in ("complete", "error")
            for o in payload["outcomes"]
        )

    def test_bench_crash_without_keep_going_fails_with_hint(
        self, tiny_corpus, capsys
    ):
        assert main(
            ["bench", "--json", "--chaos", "crash", "--chaos-rate", "0.2"]
        ) == 1
        assert "--keep-going" in capsys.readouterr().err

    def test_bench_negative_retries_rejected(self, capsys):
        assert main(["bench", "--retries", "-1"]) == 1
        assert "--retries" in capsys.readouterr().err

    def test_bench_bad_chaos_rate_rejected(self, capsys):
        assert main(["bench", "--chaos", "flaky", "--chaos-rate", "1.5"]) == 1
        assert "rate" in capsys.readouterr().err

    def test_bench_negative_budget_rejected(self, capsys):
        assert main(["bench", "--budget-calls", "-3"]) == 1
        assert "max_calls" in capsys.readouterr().err


class TestTraceSummarize:
    def test_summarize_prints_tables(self, fji_file, tmp_path, capsys):
        trace_file = str(tmp_path / "run.jsonl")
        assert main(["reduce", fji_file, "--trace", trace_file]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "spans (seconds)" in out
        assert "counters" in out
        assert "gbr.run" in out
        assert "predicate.calls" in out

    def test_summarize_json(self, fji_file, tmp_path, capsys):
        trace_file = str(tmp_path / "run.jsonl")
        assert main(["reduce", fji_file, "--trace", trace_file]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "spans" in payload and "counters" in payload

    def test_missing_trace_file(self, capsys):
        assert main(["trace", "summarize", "/nonexistent.jsonl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_trace_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        assert main(["trace", "summarize", str(path)]) == 1
        assert "bad JSONL" in capsys.readouterr().err


@pytest.fixture()
def traced_run(fji_file, tmp_path):
    """A reduce run with tracing on; returns the trace path."""
    trace_file = str(tmp_path / "run.jsonl")
    assert main(["reduce", fji_file, "--trace", trace_file]) == 0
    return trace_file


class TestTraceTimeline:
    def test_timeline_prints_both_clocks(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "timeline", traced_run]) == 0
        out = capsys.readouterr().out
        assert "gbr.run" in out
        assert "wall=" in out
        assert "virtual=" in out

    def test_timeline_inlines_probes(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "timeline", traced_run]) == 0
        assert "· probe" in capsys.readouterr().out

    def test_no_probes_flag(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "timeline", traced_run, "--no-probes"]) == 0
        assert "· probe" not in capsys.readouterr().out

    def test_limit_truncates(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "timeline", traced_run, "--limit", "2"]) == 0
        assert "truncated" in capsys.readouterr().out


class TestTraceFlame:
    def test_folded_stacks_output(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "flame", traced_run]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 1
        assert any("gbr.run" in line for line in lines)

    def test_virtual_clock(self, traced_run, capsys):
        capsys.readouterr()
        assert main(
            ["trace", "flame", traced_run, "--clock", "virtual"]
        ) == 0
        assert capsys.readouterr().out.strip()


class TestTraceExplain:
    def _probe_id(self, trace_file):
        events = load_trace(trace_file)
        return next(
            e["event_id"] for e in events if e["type"] == "probe"
        )

    def test_explain_resolves_a_probe_chain(self, traced_run, capsys):
        handle = self._probe_id(traced_run)
        capsys.readouterr()
        assert main(["trace", "explain", handle, traced_run]) == 0
        out = capsys.readouterr().out
        assert f"probe {handle}" in out
        assert "cache=" in out
        assert "gbr.run" in out  # the causal chain reaches the reducer

    def test_unknown_handle_fails(self, traced_run, capsys):
        assert main(["trace", "explain", "zzz", traced_run]) == 1
        assert "no probe matches" in capsys.readouterr().err


class TestTraceMergeAndDiff:
    def test_merge_to_stdout_is_jsonl(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["trace", "merge", traced_run]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "meta"

    def test_merge_to_file(self, traced_run, tmp_path, capsys):
        out = str(tmp_path / "merged.jsonl")
        assert main(["trace", "merge", traced_run, "--out", out]) == 0
        assert len(load_trace(out)) == len(load_trace(traced_run))

    def test_diff_two_traces(self, fji_file, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert main(["reduce", fji_file, "--trace", a]) == 0
        assert main(["reduce", fji_file, "--trace", b]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "clocks" in out
        assert "wall" in out and "simulated" in out

    def test_diff_against_bench_baseline(self, traced_run, tmp_path,
                                         capsys):
        baseline = tmp_path / "BENCH_X.json"
        baseline.write_text(json.dumps({
            "results": {"wall_seconds": 1.0, "simulated_seconds": 30.0},
        }))
        capsys.readouterr()
        assert main(["trace", "diff", str(baseline), traced_run]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_diff_json_output(self, fji_file, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        assert main(["reduce", fji_file, "--trace", a]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", a, a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clocks"]["wall"]["speedup"] == pytest.approx(1.0)


class TestMetricsExport:
    def test_prometheus_exposition(self, traced_run, capsys):
        capsys.readouterr()
        assert main(["metrics", "export", traced_run]) == 0
        out = capsys.readouterr().out
        assert "# TYPE jlreduce_predicate_calls_total counter" in out

    def test_custom_prefix(self, traced_run, capsys):
        capsys.readouterr()
        assert main(
            ["metrics", "export", traced_run, "--prefix", "repro"]
        ) == 0
        assert "repro_predicate_calls_total" in capsys.readouterr().out


class TestProfilePhases:
    def test_requires_trace(self, fji_file, capsys):
        assert main(["reduce", fji_file, "--profile-phases"]) == 1
        assert "--trace" in capsys.readouterr().err

    def test_profile_events_land_in_the_trace(self, fji_file, tmp_path,
                                              capsys):
        trace_file = str(tmp_path / "prof.jsonl")
        assert main(
            ["reduce", fji_file, "--trace", trace_file,
             "--profile-phases"]
        ) == 0
        profiles = [
            e for e in load_trace(trace_file) if e["type"] == "profile"
        ]
        assert profiles
        assert profiles[0]["phase"] == "reduce"
        assert profiles[0]["top"]


class TestBenchShardedTrace:
    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=2, min_classes=8, max_classes=12
                )
            ),
        )

    def test_parallel_bench_writes_shards_that_merge(
        self, tiny_corpus, tmp_path, capsys
    ):
        import glob as globlib

        from repro.observability import load_traces

        trace_file = str(tmp_path / "bench.jsonl")
        assert main(
            ["bench", "--profile", "small", "--json",
             "--jobs", "2", "--speculate", "2", "--trace", trace_file]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        shards = globlib.glob(str(tmp_path / "bench.shard-*.jsonl"))
        assert shards, "per-worker shard files must exist"
        events = load_traces([trace_file])
        spans = [e for e in events if e["type"] == "span"]
        assert (
            len([s for s in spans if s["name"] == "instance.run"])
            == len(payload["outcomes"])
        )
        # One causally-linked timeline: every parent id resolves, and
        # task spans carry their serial commit slot.
        ids = {s["span_id"] for s in spans}
        for span in spans:
            parent = span.get("parent_span_id")
            assert parent is None or parent in ids
        serials = sorted(
            s["serial"] for s in spans if s["name"] == "instance.run"
        )
        assert serials == list(range(len(payload["outcomes"])))
        # Probes carry provenance into the merged stream too.
        assert any(e["type"] == "probe" for e in events)
        # And the merged stream summarizes like a single run.
        summary = summarize(events)
        assert summary["spans"]["instance.run"]["count"] == len(
            payload["outcomes"]
        )

    def test_explain_works_on_a_sharded_run(self, tiny_corpus, tmp_path,
                                            capsys):
        trace_file = str(tmp_path / "bench.jsonl")
        assert main(
            ["bench", "--profile", "small",
             "--jobs", "2", "--speculate", "2", "--trace", trace_file]
        ) == 0
        from repro.observability import load_traces

        events = load_traces([trace_file])
        handle = next(
            e["event_id"] for e in events if e["type"] == "probe"
        )
        capsys.readouterr()
        assert main(["trace", "explain", handle, trace_file]) == 0
        out = capsys.readouterr().out
        assert f"probe {handle}" in out
        assert "instance.run" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestCorpusScheduler:
    """The --corpus-dir / --debloat / corpus generate / report surface."""

    def test_corpus_generate_then_scheduled_bench_then_report(
        self, tmp_path, capsys
    ):
        corpus_dir = str(tmp_path / "corpus")
        results = str(tmp_path / "results.jsonl")
        assert main([
            "corpus", "generate", corpus_dir,
            "--profile", "small", "--num-benchmarks", "2",
        ]) == 0
        assert "persisted 2 benchmarks" in capsys.readouterr().out

        assert main([
            "bench", "--corpus-dir", corpus_dir,
            "--debloat", "--results", results,
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario: reduction" in out
        assert "scenario: debloat" in out

        assert main(["report", results]) == 0
        replay = capsys.readouterr().out
        assert "scenario: debloat" in replay

    def test_scheduled_bench_in_memory_json(self, capsys):
        assert main([
            "bench", "--jobs", "1", "--num-benchmarks", "1",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"]
        assert all(
            o["scenario"] == "reduction" for o in payload["outcomes"]
        )

    @pytest.fixture()
    def tiny_corpus(self, monkeypatch):
        from repro.workloads.corpus import CorpusConfig

        monkeypatch.setattr(
            CorpusConfig,
            "small",
            classmethod(
                lambda cls: cls(
                    num_benchmarks=1, min_classes=8, max_classes=12
                )
            ),
        )

    def test_corpus_dir_runs_at_default_jobs(self, tiny_corpus, tmp_path,
                                             capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert main([
            "corpus", "generate", corpus_dir, "--profile", "small",
        ]) == 0
        capsys.readouterr()
        assert main(["bench", "--corpus-dir", corpus_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes"]

    def test_debloat_runs_at_default_jobs(self, tiny_corpus, capsys):
        assert main(["bench", "--debloat"]) == 0
        out = capsys.readouterr().out
        assert "scenario: reduction" in out
        assert "scenario: debloat" in out

    def test_missing_manifest_reported(self, tmp_path, capsys):
        assert main(["bench", "--corpus-dir", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent.jsonl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_worker_budget_validated(self, capsys):
        assert main(["bench", "--worker-budget", "0"]) == 1
        assert "--worker-budget" in capsys.readouterr().err


class TestTraceSummarizeInstances:
    def test_summarize_lists_slowest_instances(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main([
            "bench", "--jobs", "2", "--num-benchmarks", "1",
            "--trace", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "slowest instances" in out
        assert "b000" in out


class TestServeStore:
    def test_store_dir_becomes_a_spec_that_opens(self, tmp_path,
                                                 monkeypatch):
        import repro.service.server as server

        captured = {}

        def fake_serve(config, **kwargs):
            captured["config"] = config
            return 0

        monkeypatch.setattr(server, "serve", fake_serve)
        store_dir = str(tmp_path / "store")
        assert main(["serve", "--port", "0", "--store", store_dir,
                     "--store-shards", "4"]) == 0
        spec = captured["config"].store_spec
        with spec.open() as store:
            assert store.path == store_dir
            assert store.shards == 4

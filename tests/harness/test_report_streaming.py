"""Tests for the streaming results pipeline (ResultsWriter et al.)."""

import dataclasses
import json

import pytest

from repro.harness.experiments import (
    ExperimentConfig,
    InstanceOutcome,
)
from repro.harness.report import (
    ResultsWriter,
    StreamingReport,
    iter_results,
    report_from_results,
)
from repro.parallel.scheduler import run_scheduled_corpus_experiment
from repro.workloads.corpus import CorpusConfig, build_corpus


def outcome(**overrides) -> InstanceOutcome:
    base = dict(
        benchmark_id="b000",
        decompiler="alpha",
        strategy="our-reducer",
        total_bytes=1000,
        total_classes=10,
        final_bytes=100,
        final_classes=3,
        predicate_calls=7,
        real_seconds=0.5,
        simulated_seconds=231.0,
    )
    base.update(overrides)
    return InstanceOutcome(**base)


class TestResultsWriter:
    def test_one_json_line_per_outcome(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsWriter(str(path)) as writer:
            writer.write(outcome())
            writer.write(outcome(strategy="jreduce"))
        assert writer.rows == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["strategy"] == "our-reducer"

    def test_accepts_dicts_and_outcomes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsWriter(str(path)) as writer:
            writer.write(outcome())
            writer.write(dataclasses.asdict(outcome(strategy="jreduce")))
        rows = list(iter_results(str(path)))
        assert [r["strategy"] for r in rows] == ["our-reducer", "jreduce"]

    def test_rows_flush_as_written(self, tmp_path):
        # A crashed parent must not lose committed rows to buffering.
        path = tmp_path / "results.jsonl"
        with ResultsWriter(str(path)) as writer:
            writer.write(outcome())
            assert len(path.read_text().splitlines()) == 1


class TestIterResults:
    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultsWriter(str(path)) as writer:
            writer.write(outcome())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"benchmark_id": "b9')  # killed writer
        rows = list(iter_results(str(path)))
        assert len(rows) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('not json\n{"benchmark_id": "b0"}\n')
        with pytest.raises(ValueError):
            list(iter_results(str(path)))


class TestStreamingReport:
    def test_groups_by_scenario_then_strategy(self):
        report = StreamingReport()
        report.add(outcome())
        report.add(outcome(strategy="jreduce"))
        report.add(
            outcome(
                scenario="debloat", decompiler="debloat", predicate_calls=1
            )
        )
        rendered = report.render()
        assert "scenario: reduction" in rendered
        assert "scenario: debloat" in rendered
        assert rendered.index("reduction") < rendered.index("debloat")
        assert report.rows == 3

    def test_error_rows_counted_but_not_aggregated(self):
        report = StreamingReport()
        report.add(outcome())
        report.add(
            outcome(
                strategy="jreduce",
                status="error",
                error="boom",
                final_bytes=0,
                final_classes=0,
            )
        )
        rendered = report.render()
        assert report.rows == 2
        # The error row must not drag a 0-byte "result" into the
        # geo-means.
        assert "jreduce" in rendered

    def test_streamed_replay_matches_inline(self, tmp_path):
        corpus = build_corpus(
            CorpusConfig(
                num_benchmarks=2,
                min_classes=8,
                max_classes=12,
                decompilers=("alpha",),
            )
        )
        config = ExperimentConfig(strategies=("our-reducer", "jreduce"))
        outcomes = run_scheduled_corpus_experiment(corpus, config)

        inline = StreamingReport()
        path = tmp_path / "results.jsonl"
        with ResultsWriter(str(path)) as writer:
            for row in outcomes:
                inline.add(row)
                writer.write(row)
        replayed = report_from_results(str(path))
        assert replayed.render() == inline.render()
        assert replayed.rows == inline.rows


class TestReportErrors:
    """``jlreduce report`` must refuse empty/missing inputs loudly."""

    def test_zero_row_file_raises_value_error(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no result rows"):
            report_from_results(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            report_from_results(str(tmp_path / "nope.jsonl"))

    def test_cli_report_empty_file_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "results.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no result rows" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_cli_report_missing_file_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

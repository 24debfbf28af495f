"""JSONL round-trip tests: emit → load_trace → summarize."""

import json

import pytest

from repro.observability import (
    ShardSet,
    load_trace,
    load_traces,
    render_summary,
    summarize,
    tracing_session,
)
from repro.observability.sink import percentile


def _record_sample(tracer, metrics):
    with tracer.span("outer", kind="test"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    metrics.counter("widget.count").inc(42)
    metrics.gauge("depth").set(3)
    metrics.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)


def _sample_trace(path):
    with tracing_session(str(path), label="sample") as (tracer, metrics):
        _record_sample(tracer, metrics)
    return tracer, metrics


class TestRoundTrip:
    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _sample_trace(path)
        lines = path.read_text().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "meta"
        assert parsed[0]["label"] == "sample"
        kinds = {p["type"] for p in parsed}
        assert kinds == {"meta", "span", "counter", "gauge", "histogram"}

    def test_load_trace_matches_emitted_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer, _ = _sample_trace(path)
        events = load_trace(str(path))
        spans = [e for e in events if e["type"] == "span"]
        # Streamed in finish order, nothing kept in memory.
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        assert tracer.events() == []
        counters = {
            e["name"]: e["value"] for e in events if e["type"] == "counter"
        }
        assert counters == {"widget.count": 42}

    def test_summarize_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _sample_trace(path)
        summary = summarize(load_trace(str(path)))
        assert summary["spans"]["inner"]["count"] == 2
        assert summary["spans"]["outer"]["count"] == 1
        assert summary["counters"] == {"widget.count": 42}
        assert summary["gauges"] == {"depth": 3}
        assert summary["histograms"]["lat"]["count"] == 1
        # An in-memory session's events summarize to the same spans.
        with tracing_session() as (tracer, metrics):
            _record_sample(tracer, metrics)
        direct = summarize(tracer.events())
        assert direct["spans"].keys() == summary["spans"].keys()
        assert direct["spans"]["inner"]["count"] == 2

    def test_concatenated_traces_sum_counters(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _sample_trace(a)
        _sample_trace(b)
        merged = load_trace(str(a)) + load_trace(str(b))
        assert summarize(merged)["counters"]["widget.count"] == 84

    def test_write_to_stream(self, tmp_path):
        # Each event is on disk as soon as it finishes; the metric
        # lines follow when the session exits.
        path = tmp_path / "run.jsonl"
        with tracing_session(str(path)) as (tracer, metrics):
            assert [e["type"] for e in load_trace(str(path))] == ["meta"]
            with tracer.span("s"):
                pass
            metrics.counter("c").inc()
            with open(path, encoding="utf-8") as handle:
                assert [e["type"] for e in load_trace(handle)] == [
                    "meta", "span",
                ]
        assert [e["type"] for e in load_trace(str(path))] == [
            "meta", "span", "counter",
        ]


class TestTornLines:
    """A killed worker leaves a truncated final line; loads tolerate it."""

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"type": "meta"}\n'
            '{"type": "counter", "name": "x", "value": 1}\n'
            '{"type": "span", "name": "cut-off", "dura'  # no newline
        )
        events = load_trace(str(path))
        assert [e["type"] for e in events] == ["meta", "counter"]

    def test_complete_final_line_without_newline_still_loads(self, tmp_path):
        path = tmp_path / "noeol.jsonl"
        path.write_text(
            '{"type": "meta"}\n{"type": "counter", "name": "x", "value": 1}'
        )
        assert len(load_trace(str(path))) == 2

    def test_torn_line_in_the_middle_still_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta"}\n'
            '{"type": "span", "name": "cut\n'
            '{"type": "counter", "name": "x", "value": 1}\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            load_trace(str(path))


class TestLoadTraces:
    def test_merges_a_shard_family(self, tmp_path):
        base = str(tmp_path / "run.jsonl")
        with ShardSet(base, run_id="r") as shards:
            shards.emit(
                "w1", {"type": "span", "name": "b", "serial": 1, "seq": 3}
            )
            shards.emit(
                "w0", {"type": "span", "name": "a", "serial": 0, "seq": 1}
            )
        events = load_traces([base])
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert spans == ["a", "b"]

    def test_glob_patterns(self, tmp_path):
        for name in ("one.jsonl", "two.jsonl"):
            (tmp_path / name).write_text(
                '{"type": "counter", "name": "x", "value": 1}\n'
            )
        events = load_traces([str(tmp_path / "*.jsonl")])
        assert summarize(events)["counters"]["x"] == 2

    def test_no_matches_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files match"):
            load_traces([str(tmp_path / "missing-*.jsonl")])


class TestSchemaV2:
    def test_meta_carries_run_id_and_shard(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with tracing_session(str(path)) as (tracer, _):
            with tracer.span("s"):
                pass
        meta, span = load_trace(str(path))
        assert meta["schema"] == 2
        assert meta["run_id"] == tracer.run_id == span["run_id"]
        assert meta["shard"] == "main"

    def test_probe_ledger_summary_section(self):
        events = [
            {"type": "probe", "cache": "fresh", "wall_seconds": 0.2,
             "virtual_charge": 33.0, "retries": 1},
            {"type": "probe", "cache": "store", "wall_seconds": 0.0,
             "virtual_charge": 0.0},
        ]
        probes = summarize(events)["probes"]
        assert probes["count"] == 2
        assert probes["fresh"] == 1
        assert probes["store"] == 1
        assert probes["wall_seconds"] == pytest.approx(0.2)
        assert probes["virtual_seconds"] == pytest.approx(33.0)
        assert probes["retries"] == 1

    def test_no_probes_no_section(self):
        assert "probes" not in summarize(
            [{"type": "span", "name": "s", "duration": 1.0}]
        )

    def test_render_summary_shows_the_ledger(self):
        events = [
            {"type": "probe", "cache": "fresh", "wall_seconds": 0.2,
             "virtual_charge": 33.0},
        ]
        assert "provenance ledger" in render_summary(summarize(events))


class TestErrors:
    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_trace(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            load_trace(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"type": "meta"}\n\n\n{"type": "counter", '
                        '"name": "x", "value": 1}\n')
        assert len(load_trace(str(path))) == 2


class TestSummaryStats:
    def test_p95_nearest_rank(self):
        events = [
            {"type": "span", "name": "s", "duration": float(i)}
            for i in range(1, 101)
        ]
        summary = summarize(events)
        assert summary["spans"]["s"]["p95"] == 95.0
        assert summary["spans"]["s"]["max"] == 100.0
        assert summary["spans"]["s"]["mean"] == pytest.approx(50.5)

    def test_p95_single_value(self):
        events = [{"type": "span", "name": "s", "duration": 2.5}]
        assert summarize(events)["spans"]["s"]["p95"] == 2.5

    def test_render_summary_mentions_everything(self):
        events = [
            {"type": "span", "name": "phase.one", "duration": 0.5},
            {"type": "counter", "name": "hits", "value": 3},
            {"type": "gauge", "name": "depth", "value": 2},
            {"type": "histogram", "name": "lat", "count": 1, "sum": 0.1},
        ]
        text = render_summary(summarize(events))
        for token in ("phase.one", "hits", "depth", "lat", "p95"):
            assert token in text

    def test_render_empty_summary(self):
        assert "empty" in render_summary(summarize([]))


class TestPercentile:
    @pytest.mark.parametrize(
        "values, q, expected",
        [
            ([5, 1, 3, 2, 4], 0.5, 3),  # odd length: the middle value
            ([4, 1, 3, 2], 0.5, 2),  # even length: the lower middle
            ([4, 1, 3, 2], 0.75, 3),
            ([5, 1, 3], 0.0, 1),
            ([5, 1, 3], 1.0, 5),
            ([2.5], 0.99, 2.5),
            ([], 0.5, 0.0),
        ],
    )
    def test_nearest_rank(self, values, q, expected):
        assert percentile(values, q) == expected

    def test_loadgen_reports_the_summarize_percentile(self):
        from repro.service.loadgen import _latency_stats

        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        stats = _latency_stats(values)
        assert stats["p50"] == 3.0
        spans = [
            {"type": "span", "name": "s", "duration": v} for v in values
        ]
        assert stats["p95"] == summarize(spans)["spans"]["s"]["p95"]


class TestSummarizeInstances:
    """The per-instance block of ``trace summarize``."""

    @staticmethod
    def _span(serial, wall, benchmark="b000", decompiler="alpha",
              strategy="our-reducer", worker="p1"):
        return {
            "type": "span",
            "name": "instance.run",
            "start": 0.0,
            "duration": wall,
            "vduration": wall * 100.0,
            "serial": serial,
            "worker": worker,
            "attrs": {
                "benchmark": benchmark,
                "decompiler": decompiler,
                "strategy": strategy,
            },
        }

    @staticmethod
    def _probe(serial, cache):
        return {
            "type": "probe",
            "serial": serial,
            "cache": cache,
            "wall_seconds": 0.01,
            "virtual_charge": 33.0,
        }

    def test_probe_tallies_join_by_serial(self):
        events = [
            self._span(0, 2.0),
            self._span(1, 5.0, strategy="jreduce"),
            self._probe(0, "fresh"),
            self._probe(0, "store"),
            self._probe(1, "fresh"),
        ]
        summary = summarize(events)
        rows = summary["instances"]
        # Sorted slowest-first.
        assert [row["serial"] for row in rows] == [1, 0]
        assert rows[0]["probes"] == 1
        assert rows[0]["fresh"] == 1
        assert rows[0]["store_hits"] == 0
        assert rows[1]["probes"] == 2
        assert rows[1]["store_hits"] == 1
        assert summary["instance_count"] == 2

    def test_serial_free_traces_leave_probe_columns_unset(self):
        # jobs=1 traces stamp serial -1 everywhere: the slow-instance
        # list still renders, but probes cannot be attributed.
        events = [self._span(-1, 1.0), self._probe(-1, "fresh")]
        summary = summarize(events)
        (row,) = summary["instances"]
        assert row["probes"] is None
        rendered = render_summary(summary)
        assert "slowest instances" in rendered
        assert " - " in rendered

    def test_top_n_keeps_slowest(self):
        from repro.observability.sink import INSTANCE_TOP

        events = [
            self._span(i, float(i), benchmark=f"b{i:03d}")
            for i in range(INSTANCE_TOP + 5)
        ]
        summary = summarize(events)
        assert len(summary["instances"]) == INSTANCE_TOP
        assert summary["instance_count"] == INSTANCE_TOP + 5
        walls = [row["wall_seconds"] for row in summary["instances"]]
        assert walls == sorted(walls, reverse=True)
        rendered = render_summary(summary)
        assert f"top {INSTANCE_TOP} of {INSTANCE_TOP + 5}" in rendered

    def test_traces_without_instances_omit_the_block(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _sample_trace(str(path))
        summary = summarize(load_trace(str(path)))
        assert "instances" not in summary
        assert "slowest instances" not in render_summary(summary)

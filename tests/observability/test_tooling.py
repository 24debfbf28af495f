"""Tests for trace tooling: timeline, flame, diff, prometheus export."""

import pytest

from repro.observability import (
    MetricsRegistry,
    clock_totals,
    diff_traces,
    folded_stacks,
    prometheus_exposition,
    metric_events,
    render_diff,
    render_timeline,
    summarize,
)


def _simple_trace():
    return [
        {"type": "meta", "schema": 2},
        {
            "type": "span", "name": "root", "span_id": "main:0",
            "parent_span_id": None, "start": 0.0, "duration": 3.0,
            "vstart": 0.0, "vduration": 99.0, "attrs": {},
        },
        {
            "type": "span", "name": "child", "span_id": "main:1",
            "parent_span_id": "main:0", "start": 1.0, "duration": 2.0,
            "vstart": 0.0, "vduration": 66.0, "attrs": {"k": "v"},
        },
        {
            "type": "probe", "event_id": "main:e2", "span_id": "main:1",
            "cache": "fresh", "outcome": True, "t": 1.5,
            "wall_seconds": 0.5,
        },
    ]


class TestTimeline:
    def test_indents_children_and_shows_clocks(self):
        text = render_timeline(_simple_trace())
        lines = text.splitlines()
        root_line = next(l for l in lines if "root" in l)
        child_line = next(l for l in lines if "child" in l)
        assert "wall=3.0000s" in root_line
        assert "virtual=99.0s" in root_line
        assert "k=v" in child_line
        # Child indents one level deeper than root.
        assert child_line.index("child") > root_line.index("root")

    def test_probes_inline_under_owner(self):
        text = render_timeline(_simple_trace())
        assert "· probe main:e2" in text
        assert "cache=fresh" in text

    def test_probes_can_be_suppressed(self):
        assert "probe" not in render_timeline(
            _simple_trace(), with_probes=False
        )

    def test_limit_truncates(self):
        text = render_timeline(_simple_trace(), limit=1)
        assert "truncated" in text

    def test_empty_trace(self):
        assert render_timeline([]) == "(no spans)"


class TestFoldedStacks:
    def test_self_time_excludes_children(self):
        text = folded_stacks(_simple_trace(), clock="wall", scale=1000.0)
        lines = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
        )
        # root self = 3.0 - 2.0 child = 1.0s → 1000ms
        assert lines["root"] == "1000"
        assert lines["root;child"] == "2000"

    def test_virtual_clock(self):
        text = folded_stacks(_simple_trace(), clock="virtual")
        lines = dict(line.rsplit(" ", 1) for line in text.splitlines())
        assert lines["root"] == "33000"  # 99 - 66

    def test_rejects_unknown_clock(self):
        with pytest.raises(ValueError, match="clock"):
            folded_stacks([], clock="cpu")

    def test_identical_stacks_aggregate(self):
        events = [
            {"type": "span", "name": "leaf", "span_id": f"m:{i}",
             "parent_span_id": None, "duration": 1.0}
            for i in range(3)
        ]
        assert folded_stacks(events) == "leaf 3000"


class TestClockTotals:
    def test_wall_sums_roots_only(self):
        totals = clock_totals(_simple_trace())
        assert totals["wall"] == 3.0

    def test_simulated_prefers_the_counter(self):
        events = _simple_trace() + [
            {"type": "counter", "name": "predicate.virtual_seconds",
             "value": 123.0},
        ]
        assert clock_totals(events)["simulated"] == 123.0

    def test_simulated_falls_back_to_span_vclock(self):
        assert clock_totals(_simple_trace())["simulated"] == 99.0


class TestDiff:
    def test_speedups_and_span_deltas(self):
        slow = [
            {"type": "span", "name": "work", "span_id": "m:0",
             "parent_span_id": None, "duration": 4.0, "vduration": 100.0},
        ]
        fast = [
            {"type": "span", "name": "work", "span_id": "m:0",
             "parent_span_id": None, "duration": 2.0, "vduration": 50.0},
        ]
        diff = diff_traces(slow, fast, "seq", "spec")
        assert diff["labels"] == ["seq", "spec"]
        assert diff["clocks"]["wall"]["speedup"] == pytest.approx(2.0)
        assert diff["spans"][0]["delta"] == pytest.approx(-2.0)

    def test_render_notes_clock_disagreement(self):
        diff = {
            "labels": ["seq", "spec"],
            "clocks": {
                "wall": {"a": 1.7, "b": 2.0, "speedup": 0.85},
                "simulated": {"a": 3135.0, "b": 1317.0, "speedup": 2.38},
            },
            "spans": [],
        }
        text = render_diff(diff)
        assert "clocks disagree" in text
        assert "2.38x simulated" in text

    def test_render_without_disagreement(self):
        diff = {
            "labels": ["a", "b"],
            "clocks": {
                "wall": {"a": 1.0, "b": 1.0, "speedup": 1.0},
                "simulated": {"a": 1.0, "b": 1.0, "speedup": 1.0},
            },
            "spans": [{"name": "s", "a": 1.0, "b": 1.0, "delta": 0.0}],
        }
        assert "clocks disagree" not in render_diff(diff)


class TestPrometheus:
    def test_counters_gauges_histograms(self):
        events = [
            {"type": "counter", "name": "probes.fresh", "value": 3},
            {"type": "counter", "name": "probes.fresh", "value": 2},
            {"type": "gauge", "name": "queue.depth", "value": 7},
            {
                "type": "histogram", "name": "probe.latency",
                "buckets": [0.1, 1.0], "counts": [4, 2, 1],
                "sum": 3.5, "count": 7,
            },
        ]
        text = prometheus_exposition(events, prefix="jl")
        assert "jl_probes_fresh_total 5" in text
        assert "jl_queue_depth 7" in text
        assert 'jl_probe_latency_bucket{le="0.1"} 4' in text
        assert 'jl_probe_latency_bucket{le="1.0"} 6' in text
        assert 'jl_probe_latency_bucket{le="+Inf"} 7' in text
        assert "jl_probe_latency_sum 3.5" in text
        assert "jl_probe_latency_count 7" in text

    def test_export_and_summarize_agree_over_two_traces(self):
        # Two registry dumps (two runs, or two shards of one run) of the
        # same counter and histogram: 3 and 5 observations.
        events = []
        for observations in (3, 5):
            registry = MetricsRegistry()
            for i in range(observations):
                registry.counter("probes").inc()
                registry.histogram("lat", buckets=(0.1, 1.0)).observe(
                    0.05 * (i + 1)
                )
            events += metric_events(registry)
        summary = summarize(events)
        assert summary["counters"]["probes"] == 8
        assert summary["histograms"]["lat"]["count"] == 8
        text = prometheus_exposition(events, prefix="jl")
        assert "jl_probes_total 8" in text
        assert "jl_lat_count 8" in text
        assert 'jl_lat_bucket{le="+Inf"} 8' in text
        # 0.05..0.15 and 0.05..0.25: two observations per dump <= 0.1.
        assert 'jl_lat_bucket{le="0.1"} 4' in text
        total = sum(0.05 * (i + 1) for n in (3, 5) for i in range(n))
        assert summary["histograms"]["lat"]["sum"] == pytest.approx(total)

    def test_names_are_sanitized(self):
        text = prometheus_exposition(
            [{"type": "counter", "name": "a.b-c", "value": 1}]
        )
        assert "jlreduce_a_b_c_total 1" in text

    def test_empty(self):
        assert prometheus_exposition([]) == "# (no metrics)\n"

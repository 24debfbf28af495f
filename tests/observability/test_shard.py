"""Tests for per-worker trace shards and the deterministic merge."""

import json
import os

from repro.observability import (
    ShardSet,
    discover_shards,
    expand_trace_args,
    load_trace,
    load_traces,
    merge_events,
    shard_path,
    tracing_session,
)


class TestShardPath:
    def test_main_writes_the_base_file(self):
        assert shard_path("/tmp/t/run.jsonl", "main") == "/tmp/t/run.jsonl"

    def test_workers_get_sibling_files(self):
        assert (
            shard_path("/tmp/t/run.jsonl", "w3")
            == "/tmp/t/run.shard-w3.jsonl"
        )

    def test_worker_label_is_sanitized(self):
        assert (
            shard_path("run.jsonl", "w0/../evil")
            == "run.shard-w0----evil.jsonl"
        )

    def test_extension_defaults_to_jsonl(self):
        assert shard_path("trace", "w0") == "trace.shard-w0.jsonl"


class TestDiscovery:
    def test_family_is_base_plus_sorted_shards(self, tmp_path):
        base = tmp_path / "run.jsonl"
        base.write_text("")
        for worker in ("w1", "w0", "w10"):
            (tmp_path / f"run.shard-{worker}.jsonl").write_text("")
        family = discover_shards(str(base))
        assert family[0] == str(base)
        assert [os.path.basename(p) for p in family[1:]] == [
            "run.shard-w0.jsonl",
            "run.shard-w1.jsonl",
            "run.shard-w10.jsonl",
        ]

    def test_shards_survive_a_missing_base(self, tmp_path):
        (tmp_path / "run.shard-w0.jsonl").write_text("")
        family = discover_shards(str(tmp_path / "run.jsonl"))
        assert [os.path.basename(p) for p in family] == [
            "run.shard-w0.jsonl"
        ]

    def test_expand_handles_globs_and_dedups(self, tmp_path):
        a = tmp_path / "a.jsonl"
        a.write_text("")
        (tmp_path / "a.shard-w0.jsonl").write_text("")
        paths = expand_trace_args(
            [str(tmp_path / "*.jsonl"), str(a)]
        )
        names = [os.path.basename(p) for p in paths]
        assert names.count("a.jsonl") == 1
        assert "a.shard-w0.jsonl" in names


class TestMerge:
    def test_orders_by_serial_then_seq(self):
        shard_a = [
            {"type": "span", "name": "late", "serial": 2, "seq": 9},
            {"type": "span", "name": "parent", "serial": -1, "seq": 0},
        ]
        shard_b = [
            {"type": "span", "name": "early", "serial": 0, "seq": 5},
            {"type": "span", "name": "early2", "serial": 0, "seq": 7},
        ]
        merged = merge_events([shard_a, shard_b])
        assert [e["name"] for e in merged] == [
            "parent", "early", "early2", "late",
        ]

    def test_merge_is_input_order_independent(self):
        shards = [
            [{"type": "span", "name": "a", "serial": 0, "seq": 1}],
            [{"type": "span", "name": "b", "serial": 1, "seq": 2}],
        ]
        assert merge_events(shards) == merge_events(list(reversed(shards)))

    def test_meta_lines_float_to_front(self):
        merged = merge_events([
            [
                {"type": "span", "name": "s", "serial": 0, "seq": 1},
                {"type": "meta", "shard": "w0"},
            ],
        ])
        assert merged[0]["type"] == "meta"

    def test_schema1_events_keep_their_original_order(self):
        old = [
            {"type": "span", "name": "first"},
            {"type": "span", "name": "second"},
        ]
        assert [e["name"] for e in merge_events([old])] == [
            "first", "second",
        ]


class TestShardSet:
    def test_routes_workers_to_their_own_files(self, tmp_path):
        base = str(tmp_path / "run.jsonl")
        with ShardSet(base, run_id="r-1", label="test") as shards:
            shards.emit("main", {"type": "span", "name": "root", "seq": 0})
            shards.emit("w0", {"type": "span", "name": "child", "seq": 1})
        main_events = load_trace(base)
        w0_events = load_trace(str(tmp_path / "run.shard-w0.jsonl"))
        assert [e["type"] for e in main_events] == ["meta", "span"]
        assert main_events[0]["run_id"] == "r-1"
        assert main_events[0]["shard"] == "main"
        assert w0_events[0]["shard"] == "w0"
        assert w0_events[1]["name"] == "child"

    def test_every_line_is_flushed(self, tmp_path):
        base = str(tmp_path / "run.jsonl")
        shards = ShardSet(base, run_id="r-2")
        shards.emit("main", {"type": "span", "name": "root"})
        # Readable before close: a killed process leaves usable shards.
        assert len(load_trace(base)) == 2
        shards.close()

    def test_merged_family_reads_as_one_run(self, tmp_path):
        base = str(tmp_path / "run.jsonl")
        with ShardSet(base, run_id="r-3") as shards:
            shards.emit(
                "w1", {"type": "span", "name": "b", "serial": 1, "seq": 4}
            )
            shards.emit(
                "w0", {"type": "span", "name": "a", "serial": 0, "seq": 2}
            )
            shards.emit_main({"type": "counter", "name": "c", "value": 1})
        events = load_traces([base])
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert spans == ["a", "b"]
        assert any(e["type"] == "counter" for e in events)
        metas = [e for e in events if e["type"] == "meta"]
        assert {m["shard"] for m in metas} == {"main", "w0", "w1"}

    def test_rerun_drops_the_previous_runs_shards(self, tmp_path):
        base = str(tmp_path / "t.jsonl")
        stale = tmp_path / "t.shard-p999.jsonl"
        stale.write_text(
            json.dumps({"type": "meta", "run_id": "old", "shard": "p999"})
            + "\n"
            + json.dumps({"type": "span", "name": "stale", "run_id": "old"})
            + "\n"
        )
        with tracing_session(base) as (tracer, _metrics):
            with tracer.span("fresh"):
                pass
        assert not stale.exists()
        events = load_traces([base])
        assert {e["run_id"] for e in events} == {tracer.run_id}
        assert "stale" not in {e.get("name") for e in events}

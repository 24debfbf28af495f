"""The tracing gate of ``benchmarks/bench_telemetry.py`` reads its
baseline before it writes anything, so ``--check`` compares against
the committed file even when ``--out`` names the same file."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_bench():
    path = os.path.join(ROOT, "benchmarks", "bench_telemetry.py")
    spec = importlib.util.spec_from_file_location("bench_telemetry", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lanes(events_per_instance):
    lane = {"wall_seconds": 1.0, "overhead": 0.0, "overhead_median": 0.0}
    return {
        "tracing_off": {"wall_seconds": 1.0},
        "tracing_memory": dict(lane),
        "tracing_sharded": dict(lane, events=0, shard_files=1),
        "instances": 4,
        "reps": 1,
        "events_per_instance": events_per_instance,
    }


def test_check_reads_the_baseline_before_out_overwrites_it(
    tmp_path, monkeypatch
):
    bench = load_bench()
    baseline = tmp_path / "BENCH_6.json"
    baseline.write_text(json.dumps(
        {"telemetry_overhead": {"events_per_instance": 10.0}}
    ))
    # A run with 10x the baseline's trace volume, written over the
    # baseline file itself (the script's default --out).
    monkeypatch.setattr(bench, "bench_lanes", lambda *args: lanes(100.0))
    status = bench.main(["--out", str(baseline), "--check", str(baseline)])
    assert status == 1
    written = json.loads(baseline.read_text())
    assert written["telemetry_overhead"]["events_per_instance"] == 100.0


def test_check_passes_within_the_volume_ceiling(tmp_path, monkeypatch):
    bench = load_bench()
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"telemetry_overhead": {"events_per_instance": 10.0}}
    ))
    monkeypatch.setattr(bench, "bench_lanes", lambda *args: lanes(12.0))
    status = bench.main(
        ["--out", str(tmp_path / "run.json"), "--check", str(baseline)]
    )
    assert status == 0

"""``tracing_session``: the one way a traced run opens and ends its trace."""

import os
import signal
import subprocess
import sys

import pytest

from repro.observability import (
    get_metrics,
    get_tracer,
    load_traces,
    tracing_session,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: A child that finishes three spans in a traced session, then is killed
#: with SIGKILL before the session can exit.
KILLED_CHILD = """
import os, signal, sys
from repro.observability import tracing_session

with tracing_session(sys.argv[1], label="killed") as (tracer, metrics):
    with tracer.span("outer"):
        for i in range(3):
            with tracer.span("step", i=i):
                metrics.counter("steps").inc()
        os.kill(os.getpid(), signal.SIGKILL)
"""


class TestTracingSession:
    def test_unwritable_path_is_refused_before_the_block(self, tmp_path):
        ran = []
        with pytest.raises(OSError):
            with tracing_session(str(tmp_path / "missing" / "t.jsonl")):
                ran.append(True)
        assert ran == []
        assert not get_tracer().enabled

    def test_a_raising_block_keeps_its_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with tracing_session(path, label="boom") as (tracer, metrics):
                with tracer.span("doomed"):
                    metrics.counter("work").inc(2)
                    raise RuntimeError("boom")
        events = load_traces([path])
        assert events[0]["label"] == "boom"
        assert [e["name"] for e in events if e["type"] == "span"] == [
            "doomed"
        ]
        assert {"type": "counter", "name": "work", "value": 2,
                "run_id": tracer.run_id} in events

    def test_globals_are_restored(self, tmp_path):
        tracer_before, metrics_before = get_tracer(), get_metrics()
        with tracing_session(str(tmp_path / "t.jsonl")) as (tracer, metrics):
            assert get_tracer() is tracer
            assert get_metrics() is metrics
        assert get_tracer() is tracer_before
        assert get_metrics() is metrics_before

    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
    )
    def test_sigkilled_run_keeps_every_finished_span(self, tmp_path):
        path = str(tmp_path / "killed.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run(
            [sys.executable, "-c", KILLED_CHILD, path], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        events = load_traces([path])
        assert events[0]["label"] == "killed"
        steps = [e for e in events if e["type"] == "span"]
        assert [e["attrs"]["i"] for e in steps] == [0, 1, 2]
        # The open span and the metric lines never reached the file.
        assert all(e["type"] in ("meta", "span") for e in events)

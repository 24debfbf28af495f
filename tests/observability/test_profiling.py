"""Tests for opt-in per-phase cProfile capture."""

from repro.observability import (
    Tracer,
    profiled_phase,
    render_profile,
)


def _busy():
    return sum(i * i for i in range(5000))


class TestProfiledPhase:
    def test_emits_profile_event_with_hotspots(self):
        tracer = Tracer(enabled=True)
        with profiled_phase("reduce", top=5, tracer=tracer):
            _busy()
        events = tracer.events()
        assert len(events) == 1
        event = events[0]
        assert event["type"] == "profile"
        assert event["phase"] == "reduce"
        assert 0 < len(event["top"]) <= 5
        row = event["top"][0]
        assert set(row) == {"func", "calls", "tottime", "cumtime"}
        # Sorted by cumulative time, descending.
        cums = [r["cumtime"] for r in event["top"]]
        assert cums == sorted(cums, reverse=True)

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        with profiled_phase("reduce", tracer=tracer):
            _busy()
        assert tracer.events() == []

    def test_nested_capture_does_not_double_profile(self):
        tracer = Tracer(enabled=True)
        with profiled_phase("outer", tracer=tracer):
            with profiled_phase("inner", tracer=tracer):
                _busy()
        phases = [e["phase"] for e in tracer.events()]
        assert phases == ["outer"]

    def test_capture_carries_context_stamps(self):
        tracer = Tracer(enabled=True, run_id="run-p")
        with tracer.span("instance.reduce") as sp:
            with profiled_phase("reduce", tracer=tracer):
                _busy()
        event = tracer.events()[0]
        assert event["span_id"] == sp.span_id
        assert event["run_id"] == "run-p"


class TestRenderProfile:
    def test_renders_a_table(self):
        tracer = Tracer(enabled=True)
        with profiled_phase("reduce", tracer=tracer):
            _busy()
        text = render_profile(tracer.events()[0])
        assert "phase=reduce" in text
        assert "cumtime" in text

    def test_renders_empty_capture(self):
        assert "(no samples)" in render_profile(
            {"type": "profile", "phase": "idle", "top": []}
        )

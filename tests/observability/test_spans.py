"""Tests for the span tracer: nesting, ordering, thread-locality, no-op."""

import threading

from repro.observability import (
    NULL_SPAN,
    TraceContext,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.observability.spans import _NULL_SPAN


def _spans(tracer):
    return [e for e in tracer.events() if e["type"] == "span"]


def _by_name(tracer):
    return {e["name"]: e for e in _spans(tracer)}


class TestNesting:
    def test_parent_links_follow_lexical_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        by_name = _by_name(tracer)
        assert by_name["outer"]["parent_span_id"] is None
        assert by_name["middle"]["parent_span_id"] == outer.span_id
        assert by_name["inner"]["parent_span_id"] == middle.span_id
        assert (
            by_name["inner"]["parent_span_id"]
            != by_name["middle"]["parent_span_id"]
        )

    def test_events_recorded_in_finish_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [e["name"] for e in _spans(tracer)] == ["b", "c", "a"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("s1"):
                pass
            with tracer.span("s2"):
                pass
        by_name = _by_name(tracer)
        assert by_name["s1"]["parent_span_id"] == root.span_id
        assert by_name["s2"]["parent_span_id"] == root.span_id

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = _by_name(tracer)
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["start"] >= outer["start"]
        assert inner["duration"] <= outer["duration"]

    def test_attrs_and_set_attr(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as sp:
            sp.set_attr("entries", 7)
        (event,) = tracer.events()
        assert event["attrs"] == {"size": 3, "entries": 7}

    def test_exception_still_records_span(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [e["name"] for e in _spans(tracer)] == ["doomed"]


class TestThreads:
    def test_parents_do_not_cross_threads(self):
        tracer = Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("thread-root"):
                pass
            done.set()

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        by_name = _by_name(tracer)
        # The worker's span must be a root, not a child of main-root.
        assert by_name["thread-root"]["parent_span_id"] is None


class TestDisabled:
    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored", size=1) as sp:
            sp.set_attr("more", 2)
        assert tracer.events() == []

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is _NULL_SPAN
        assert tracer.span("b") is tracer.span("c")

    def test_global_default_is_disabled(self):
        assert get_tracer().enabled is False

    def test_set_tracer_swaps_and_restores(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            assert get_tracer() is fresh
        finally:
            set_tracer(previous)
        assert get_tracer() is previous


class TestFastPathAndSampling:
    def test_public_null_span_is_the_shared_singleton(self):
        """Hot paths (solver.py, counting.py) check ``tracer.enabled``
        and use NULL_SPAN directly, skipping the attrs-dict build."""
        assert NULL_SPAN is _NULL_SPAN
        with NULL_SPAN as sp:
            sp.set_attr("ignored", 1)

    def test_sampling_default_records_everything(self):
        # There is no sampling: every span an enabled tracer opens is
        # recorded.
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("tick"):
                pass
        assert len(tracer.events()) == 5


class TestLeakedSpans:
    def test_leaked_child_is_emitted_and_marked(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("leaked-child")  # never exited
        outer.__exit__(None, None, None)
        by_name = _by_name(tracer)
        assert by_name["leaked-child"]["attrs"].get("leaked") is True
        assert "leaked" not in by_name["outer"]["attrs"]
        assert by_name["leaked-child"]["parent_span_id"] == outer.span_id


class TestAttach:
    def test_worker_roots_parent_onto_the_attached_context(self):
        tracer = Tracer(run_id="r")
        captured = {}

        def worker(ctx):
            with tracer.attach(ctx):
                with tracer.span("task.run") as sp:
                    captured["span_id"] = sp.span_id

        with tracer.span("spawn") as spawn:
            ctx = tracer.current_context().task(serial=3, worker="w1")
            thread = threading.Thread(target=worker, args=(ctx,))
            thread.start()
            thread.join()
        by_name = _by_name(tracer)
        task = by_name["task.run"]
        assert task["parent_span_id"] == spawn.span_id
        assert task["worker"] == "w1"
        assert task["serial"] == 3
        assert task["trace_id"] == "r/0003"
        assert task["span_id"].startswith("w1:")

    def test_attach_does_not_leak_lexical_parents(self):
        # A pool thread reused across tasks: spans open on the thread
        # before attach() must not become parents of the new task.
        tracer = Tracer()
        stale = tracer.span("stale")
        ctx = TraceContext(run_id="r", trace_id="t", span_id=None)
        with tracer.attach(ctx):
            with tracer.span("fresh") as fresh:
                pass
        stale.__exit__(None, None, None)
        assert fresh.parent_id is None
        by_name = _by_name(tracer)
        # The stale span's nesting survives the attach block.
        assert by_name["stale"]["parent_span_id"] is None

    def test_attach_carries_the_virtual_clock(self):
        tracer = Tracer()
        readings = iter([10.0, 25.0])
        ctx = TraceContext(run_id="r", trace_id="t")
        with tracer.attach(ctx, clock=lambda: next(readings)):
            with tracer.span("work"):
                pass
        (event,) = tracer.events()
        assert event["vstart"] == 10.0
        assert event["vduration"] == 15.0


class TestDualClocks:
    def test_spans_record_virtual_start_and_duration(self):
        tracer = Tracer()
        vnow = [100.0]
        with tracer.clock(lambda: vnow[0]):
            with tracer.span("outer"):
                vnow[0] = 133.0
                with tracer.span("inner"):
                    vnow[0] = 166.0
        by_name = _by_name(tracer)
        assert by_name["outer"]["vstart"] == 100.0
        assert by_name["outer"]["vduration"] == 66.0
        assert by_name["inner"]["vstart"] == 133.0
        assert by_name["inner"]["vduration"] == 33.0

    def test_no_clock_means_zero_virtual_time(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        (event,) = tracer.events()
        assert event["vstart"] == 0.0
        assert event["vduration"] == 0.0

    def test_virtual_now_without_provider(self):
        assert Tracer().virtual_now() == 0.0


class TestLedgerEvents:
    def test_event_is_stamped_with_context(self):
        tracer = Tracer(run_id="r")
        with tracer.span("owner") as sp:
            event = tracer.event("probe", cache="fresh")
        assert event["type"] == "probe"
        assert event["span_id"] == sp.span_id
        assert event["run_id"] == "r"
        assert event["worker"] == "main"
        assert event["event_id"] == f"main:e{event['seq']}"
        assert event["cache"] == "fresh"
        assert tracer.events()[0] == event

    def test_spans_and_ledger_events_share_one_list_in_emit_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("probe")
            with tracer.span("inner"):
                pass
            tracer.event("profile")
        kinds = [(e["type"], e.get("name")) for e in tracer.events()]
        assert kinds == [
            ("probe", None),
            ("span", "inner"),
            ("profile", None),
            ("span", "outer"),
        ]

    def test_explicit_span_id_wins(self):
        tracer = Tracer()
        with tracer.span("open"):
            event = tracer.event("probe", span_id="w9:42")
        assert event["span_id"] == "w9:42"

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.event("probe") is None
        assert tracer.events() == []

    def test_span_to_dict_uses_parent_span_id_key(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        payloads = tracer.events()
        assert len(payloads) == 2
        assert all("parent_span_id" in p for p in payloads)


class TestAdopt:
    def test_adopted_payload_becomes_a_span_event(self):
        tracer = Tracer(run_id="r")
        span_id = tracer.adopt(
            {
                "type": "span",
                "name": "predicate.call",
                "start": 1.5,
                "duration": 0.25,
                "vstart": 33.0,
                "parent_span_id": "main:0",
                "run_id": "r",
                "trace_id": "t",
                "serial": 4,
                "worker": "p123",
                "attrs": {"backend": "process", "outcome": True},
            }
        )
        (event,) = tracer.events()
        assert span_id == event["span_id"]
        assert event["span_id"].startswith("p123:")
        assert event["name"] == "predicate.call"
        assert event["parent_span_id"] == "main:0"
        assert event["duration"] == 0.25
        assert event["vstart"] == 33.0
        assert event["serial"] == 4
        assert event["attrs"]["backend"] == "process"

    def test_adopt_copies_the_payload(self):
        tracer = Tracer()
        payload = {"type": "span", "name": "x", "worker": "p1",
                   "attrs": {"k": 1}}
        tracer.adopt(payload)
        (event,) = tracer.events()
        assert event is not payload
        assert "span_id" not in payload and "seq" not in payload
        assert {k: event[k] for k in payload} == payload

    def test_adopt_assigns_fresh_sequence_numbers(self):
        tracer = Tracer()
        with tracer.span("parent"):
            pass
        adopted = tracer.adopt({"name": "child", "worker": "p9"})
        seqs = [e["seq"] for e in tracer.events()]
        assert len(set(seqs)) == len(seqs)
        assert adopted == f"p9:{max(seqs)}"

    def test_adopt_fills_run_id_from_tracer(self):
        tracer = Tracer(run_id="host-run")
        tracer.adopt({"name": "x", "worker": "p1"})
        (event,) = tracer.events()
        assert event["run_id"] == "host-run"
        assert event["trace_id"] == "host-run"

    def test_disabled_tracer_adopts_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.adopt({"name": "x"}) is None
        assert tracer.events() == []


class TestIngest:
    def test_ingest_keeps_ids_and_rebases_both_clocks(self):
        tracer = Tracer()
        span = {"type": "span", "name": "w", "span_id": "p7:3", "seq": 3,
                "start": 1.0, "worker": "p7"}
        probe = {"type": "probe", "event_id": "p7:e4", "seq": 4, "t": 2.0,
                 "worker": "p7"}
        tracer.ingest(span, time_offset=0.5)
        tracer.ingest(probe, time_offset=0.5)
        got_span, got_probe = tracer.events()
        assert (got_span["span_id"], got_span["seq"]) == ("p7:3", 3)
        assert got_span["start"] == 1.5
        assert (got_probe["event_id"], got_probe["t"]) == ("p7:e4", 2.5)
        # The worker's payloads are copied, not re-based in place.
        assert span["start"] == 1.0 and probe["t"] == 2.0


class TestClear:
    def test_clear_drops_events(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert len(tracer.events()) == 1
        tracer.clear()
        assert tracer.events() == []

    def test_clear_drops_ledger_events(self):
        tracer = Tracer()
        tracer.event("probe")
        tracer.clear()
        assert tracer.events() == []

"""Tests for the metrics registry: counters, gauges, histogram edges."""

import threading

import pytest

from repro.observability import (
    MetricsRegistry,
    get_metrics,
    scoped_metrics,
)
from repro.observability.metrics import Histogram


class TestCounters:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_inc_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.snapshot()["counters"] == {"hits": 5}

    def test_counter_values_is_plain_dict(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(2)
        values = registry.counter_values()
        values["x"] = 99  # mutating the snapshot must not touch the registry
        assert registry.counter("x").value == 2


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7)
        assert registry.snapshot()["gauges"] == {"depth": 7}


class TestHistogramBucketEdges:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)  # exactly on the first bound -> bucket 0
        hist.observe(2.0)  # exactly on the second bound -> bucket 1
        assert hist.counts == [1, 1, 0, 0]

    def test_value_above_last_edge_overflows(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts == [0, 0, 1]

    def test_value_below_first_edge(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.0)
        hist.observe(-5.0)
        assert hist.counts == [2, 0, 0]

    def test_sum_count_mean(self):
        hist = Histogram("h", buckets=(10.0,))
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(6.0)
        assert hist.mean() == pytest.approx(2.0)

    def test_unsorted_bounds_are_sorted(self):
        hist = Histogram("h", buckets=(4.0, 1.0, 2.0))
        assert hist.buckets == (1.0, 2.0, 4.0)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestReset:
    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 0}
        assert snapshot["gauges"] == {"g": 0.0}
        assert snapshot["histograms"]["h"]["count"] == 0
        assert snapshot["histograms"]["h"]["counts"] == [0, 0]


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def worker():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_concurrent_observations_lose_nothing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))

        def worker():
            for _ in range(2_000):
                hist.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 12_000
        assert hist.counts == [12_000, 0]


class TestParentForwarding:
    def test_child_updates_forward_to_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("x").inc(3)
        child.gauge("g").set(1.5)
        child.histogram("h", buckets=(1.0,)).observe(0.5)
        assert parent.counter("x").value == 3
        assert parent.gauge("g").value == 1.5
        assert parent.histogram("h", buckets=(1.0,)).count == 1

    def test_child_sees_only_its_own_activity(self):
        parent = MetricsRegistry()
        parent.counter("x").inc(100)
        child = MetricsRegistry(parent=parent)
        child.counter("x").inc(2)
        assert child.counter_values() == {"x": 2}
        assert parent.counter("x").value == 102

    def test_child_reset_leaves_parent_untouched(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("x").inc(4)
        child.reset()
        assert child.counter("x").value == 0
        assert parent.counter("x").value == 4


class TestScopedMetrics:
    def test_scope_overrides_get_metrics_on_this_thread(self):
        outside = get_metrics()
        with scoped_metrics() as scoped:
            assert get_metrics() is scoped
            assert scoped.parent is outside
        assert get_metrics() is outside

    def test_scopes_nest(self):
        with scoped_metrics() as outer:
            with scoped_metrics() as inner:
                assert get_metrics() is inner
                assert inner.parent is outer
                inner.counter("x").inc()
            assert get_metrics() is outer
        assert outer.counter("x").value == 1

    def test_other_threads_are_unaffected(self):
        seen = {}

        def probe():
            seen["registry"] = get_metrics()

        with scoped_metrics() as scoped:
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["registry"] is not scoped

    def test_concurrent_scopes_do_not_pollute_each_other(self):
        results = {}
        barrier = threading.Barrier(2)

        def run(tag, amount):
            with scoped_metrics() as scoped:
                barrier.wait()  # both scopes provably live at once
                for _ in range(amount):
                    get_metrics().counter("work").inc()
                results[tag] = scoped.counter_values()["work"]

        threads = [
            threading.Thread(target=run, args=("a", 500)),
            threading.Thread(target=run, args=("b", 900)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {"a": 500, "b": 900}

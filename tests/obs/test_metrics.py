"""Unit tests for counters, gauges, histograms, and event-derived metrics."""

import math

import pytest

from repro.obs import (
    CLOCK_DRAM,
    Counter,
    FIFO_ENQUEUE,
    Gauge,
    Histogram,
    MEM_READ_COMPLETE,
    MetricsRegistry,
    PE_FORWARD,
    PE_REDUCE,
    QUERY_COMPLETE,
    TraceEvent,
    metrics_from_events,
    nearest_rank,
    per_level_counts,
)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_high_water(self):
        gauge = Gauge()
        for value in (2, 9, 4):
            gauge.set(value)
        assert gauge.value == 4
        assert gauge.high_water == 9


class TestHistogram:
    def test_empty(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0

    def test_percentiles_nearest_rank(self):
        histogram = Histogram()
        for value in range(1, 101):  # 1..100
            histogram.record(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(0) == 1  # smallest sample

    def test_single_sample(self):
        histogram = Histogram()
        histogram.record(42)
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == 42

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_mean_and_max(self):
        histogram = Histogram()
        for value in (1, 2, 3):
            histogram.record(value)
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.max == 3


class TestNearestRank:
    """The one nearest-rank percentile behind ``Histogram.percentile``,
    ``ServingReport.latency_percentile_us`` and the cache sweep's p99."""

    @pytest.mark.parametrize("n", [1, 24, 100, 192])
    @pytest.mark.parametrize("p", [0, 1, 50, 95, 99, 99.5, 100])
    def test_matches_ceil_definition(self, n, p):
        ordered = [10.0 * value for value in range(n)]
        rank = max(1, math.ceil(p * n / 100))
        assert nearest_rank(ordered, p) == ordered[rank - 1]
        histogram = Histogram()
        for value in reversed(ordered):
            histogram.record(value)
        assert histogram.percentile(p) == ordered[rank - 1]

    def test_exact_rank_is_not_read_one_high(self):
        # 0.99 · 100 is an integer: p99 of 1..100 is the 99th sample.
        assert nearest_rank(list(range(1, 101)), 99) == 99

    def test_empty_and_out_of_range(self):
        assert nearest_rank([], 50) == 0.0
        with pytest.raises(ValueError):
            nearest_rank([1.0], -1)


class TestRegistry:
    def test_instruments_are_memoised(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").record(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"]["g"] == {"value": 7, "high_water": 7}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert set(snapshot["histograms"]["h"]) == {
            "count", "mean", "max", "p50", "p95", "p99",
        }


class TestMetricsFromEvents:
    def _events(self):
        return [
            TraceEvent(PE_REDUCE, cycle=4, pe=0, level=0),
            TraceEvent(PE_REDUCE, cycle=6, pe=2, level=1),
            TraceEvent(PE_FORWARD, cycle=5, pe=0, level=0),
            TraceEvent(FIFO_ENQUEUE, cycle=2, pe=0, level=0,
                       args={"fifo": 0, "depth": 2}),
            TraceEvent(FIFO_ENQUEUE, cycle=3, pe=0, level=0,
                       args={"fifo": 0, "depth": 5}),
            TraceEvent(MEM_READ_COMPLETE, cycle=80, clock=CLOCK_DRAM, rank=1,
                       args={"bytes": 64, "start_cycle": 60}),
            TraceEvent(MEM_READ_COMPLETE, cycle=90, clock=CLOCK_DRAM, rank=1,
                       args={"bytes": 64, "start_cycle": 70}),
            TraceEvent(QUERY_COMPLETE, cycle=100, args={"query": 0}),
            TraceEvent(QUERY_COMPLETE, cycle=140, args={"query": 1}),
        ]

    def test_kind_counters(self):
        counters = metrics_from_events(self._events()).counters()
        assert counters["events.pe_reduce"] == 2
        assert counters["events.pe_forward"] == 1
        assert counters["events.query_complete"] == 2

    def test_per_level_occupancy(self):
        counters = metrics_from_events(self._events()).counters()
        assert counters["pe.reduces.level0"] == 1
        assert counters["pe.reduces.level1"] == 1
        assert counters["pe.forwards.level0"] == 1

    def test_fifo_high_water(self):
        registry = metrics_from_events(self._events())
        assert registry.gauge("fifo.depth.pe0.side0").high_water == 5

    def test_memory_traffic(self):
        registry = metrics_from_events(self._events())
        assert registry.counter("memory.reads.rank1").value == 2
        assert registry.counter("memory.bytes.rank1").value == 128
        assert registry.gauge("memory.finish_cycle").value == 90

    def test_query_latency_histogram(self):
        registry = metrics_from_events(self._events())
        histogram = registry.histogram("query.latency_pe_cycles")
        assert histogram.count == 2
        assert histogram.max == 140

    def test_accepts_existing_registry(self):
        registry = MetricsRegistry()
        assert metrics_from_events(self._events(), registry) is registry


class TestPerLevelCounts:
    def test_counts_by_level(self):
        events = [
            TraceEvent(PE_REDUCE, cycle=1, pe=0, level=0),
            TraceEvent(PE_REDUCE, cycle=2, pe=1, level=0),
            TraceEvent(PE_REDUCE, cycle=3, pe=4, level=2),
            TraceEvent(PE_FORWARD, cycle=4, pe=0, level=0),
        ]
        assert per_level_counts(events) == {0: 2, 2: 1}
        assert per_level_counts(events, kind=PE_FORWARD) == {0: 1}


class TestHistogramSortCaching:
    def test_empty_histogram_uniform_zero(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.max == 0.0
        for p in (0, 50, 95, 99, 100):
            assert h.percentile(p) == 0.0

    def test_snapshot_sorts_once(self, monkeypatch):
        registry = MetricsRegistry()
        h = registry.histogram("latency")
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            h.record(v)
        import builtins

        calls = {"sorted": 0}
        real_sorted = builtins.sorted

        def counting_sorted(*args, **kwargs):
            calls["sorted"] += 1
            return real_sorted(*args, **kwargs)

        monkeypatch.setattr(builtins, "sorted", counting_sorted)
        snap = registry.snapshot()
        # p50/p95/p99 share one sort (snapshot() also sorts instrument
        # names; only the histogram's sample sort counts here).
        hist_sorts = calls["sorted"] - 3  # counters/gauges/histograms name sorts
        assert hist_sorts == 1
        assert snap["histograms"]["latency"]["p50"] == 3.0
        assert snap["histograms"]["latency"]["p99"] == 5.0

    def test_record_invalidates_cache(self):
        h = Histogram()
        h.record(1.0)
        assert h.percentile(100) == 1.0
        h.record(9.0)
        assert h.percentile(100) == 9.0
        assert h.mean == 5.0

"""Unit tests for the serving metrics registry and histogram math."""

from __future__ import annotations

import threading

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    quantile_from_snapshot,
    render_snapshot_text,
)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc(1)
        assert gauge.value == pytest.approx(7)

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_count_sum_max(self):
        hist = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == pytest.approx(5.555)
        snap = hist.snapshot()
        assert snap["max"] == pytest.approx(5.0)

    def test_bucket_placement_le_semantics(self):
        hist = Histogram("h", buckets=(0.01, 0.1))
        hist.observe(0.01)  # == bound -> that bucket (Prometheus `le`)
        hist.observe(0.011)
        snap = hist.snapshot()
        assert snap["buckets"][0] == {"le": 0.01, "count": 1}
        assert snap["buckets"][1] == {"le": 0.1, "count": 2}

    def test_quantiles_on_uniform_data(self):
        hist = Histogram("h", buckets=(0.025, 0.05, 0.075, 0.1, 0.25))
        # 100 observations spread uniformly over (0, 0.1].
        for i in range(1, 101):
            hist.observe(i / 1000.0)
        assert hist.quantile(0.50) == pytest.approx(0.05, abs=0.005)
        assert hist.quantile(0.95) == pytest.approx(0.095, abs=0.01)
        assert hist.quantile(1.00) == pytest.approx(0.1, abs=0.005)

    def test_quantile_empty_and_overflow(self):
        hist = Histogram("h", buckets=(0.01,))
        assert hist.quantile(0.5) == 0.0
        hist.observe(3.0)  # lands in +Inf bucket
        assert hist.quantile(0.99) == pytest.approx(3.0)

    def test_quantile_identical_observations_capped_at_max(self):
        hist = Histogram("h", buckets=(0.0025, 0.005))
        for _ in range(10):
            hist.observe(0.003)
        assert hist.quantile(0.5) == pytest.approx(0.003)

    def test_rejects_bad_buckets_and_quantile(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.1, 0.01))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.1,)).quantile(0.0)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_includes_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("reqs").inc(3)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        snap = registry.snapshot()
        assert snap["reqs"] == 3
        assert snap["lat"]["count"] == 1
        assert "p50" in snap["lat"] and "p99" in snap["lat"]

    def test_render_text_prometheus_shape(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "total requests").inc()
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(0.1,)).observe(0.05)
        text = registry.render_text()
        assert "# TYPE reqs counter" in text
        assert "reqs 1" in text
        assert "depth 2" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")


class TestHistogramQuantileEdges:
    """Edge cases the cluster aggregation path leans on."""

    def test_empty_histogram_quantiles_are_zero(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 0.0

    def test_single_sample_stays_inside_its_bucket(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.07)
        # Interpolation is bucket-resolution: every quantile of a single
        # sample lands inside the sample's bucket, capped at the max.
        assert 0.0 < hist.quantile(0.01) <= 0.1
        assert hist.quantile(1.0) == pytest.approx(0.07)
        # Estimates never exceed the observed maximum.
        assert hist.quantile(1.0) <= 0.07

    def test_q_zero_and_out_of_range_rejected(self):
        hist = Histogram("h", buckets=(0.1,))
        hist.observe(0.05)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(bad)

    def test_q_one_is_allowed(self):
        hist = Histogram("h", buckets=(0.1,))
        hist.observe(0.05)
        assert hist.quantile(1.0) == pytest.approx(0.05, abs=0.05)


class TestRegistryKindCollision:
    def test_every_kind_pair_collides(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        registry.histogram("h")
        with pytest.raises(TypeError):
            registry.histogram("c")
        with pytest.raises(TypeError):
            registry.counter("g")
        with pytest.raises(TypeError):
            registry.gauge("h")


class TestSnapshotAggregation:
    """merge_snapshots / quantile_from_snapshot / render_snapshot_text:
    the cross-process aggregation used by the cluster supervisor."""

    def _registry(self, counts: int, latencies: list[float]) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("serving_requests_total").inc(counts)
        registry.gauge("serving_queue_depth").set(counts)
        hist = registry.histogram("serving_latency_seconds", buckets=(0.1, 1.0))
        for value in latencies:
            hist.observe(value)
        return registry

    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots([
            self._registry(3, []).snapshot(),
            self._registry(5, []).snapshot(),
        ])
        assert merged["serving_requests_total"] == 8
        assert merged["serving_queue_depth"] == 8

    def test_histograms_merge_exactly(self):
        merged = merge_snapshots([
            self._registry(0, [0.05, 0.5]).snapshot(),
            self._registry(0, [0.05, 2.0]).snapshot(),
        ])
        hist = merged["serving_latency_seconds"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(2.6)
        assert hist["max"] == pytest.approx(2.0)
        by_le = {b["le"]: b["count"] for b in hist["buckets"]}
        assert by_le[0.1] == 2   # cumulative counts add per bound
        assert by_le[1.0] == 3

    def test_merged_quantiles_re_estimated(self):
        merged = merge_snapshots([
            self._registry(0, [0.05] * 9).snapshot(),
            self._registry(0, [0.5]).snapshot(),
        ])
        hist = merged["serving_latency_seconds"]
        assert hist["p50"] <= 0.1
        assert hist["p99"] > 0.1

    def test_quantile_from_snapshot_matches_live_histogram(self):
        registry = self._registry(0, [0.01, 0.05, 0.2, 0.7, 3.0])
        live = registry.histogram("serving_latency_seconds", buckets=(0.1, 1.0))
        snap = live.snapshot()
        for q in (0.5, 0.95, 1.0):
            assert quantile_from_snapshot(snap, q) == pytest.approx(
                live.quantile(q)
            )

    def test_quantile_from_snapshot_edges(self):
        assert quantile_from_snapshot({"count": 0, "buckets": []}, 0.5) == 0.0
        with pytest.raises(ValueError):
            quantile_from_snapshot({"count": 1, "buckets": []}, 0.0)

    def test_kind_mismatch_across_workers_raises(self):
        with pytest.raises(TypeError):
            merge_snapshots([
                {"m": 1.0},
                {"m": {"count": 1, "sum": 0.1, "max": 0.1, "buckets": []}},
            ])

    def test_render_snapshot_text_exposition(self):
        merged = merge_snapshots([
            self._registry(2, [0.05]).snapshot(),
            self._registry(1, [0.5]).snapshot(),
        ])
        text = render_snapshot_text(
            merged, help_texts={"serving_requests_total": "total requests"}
        )
        assert "# HELP serving_requests_total total requests" in text
        assert "# TYPE serving_requests_total counter" in text
        assert "serving_requests_total 3" in text
        assert "# TYPE serving_queue_depth gauge" in text
        assert "# TYPE serving_latency_seconds histogram" in text
        assert 'serving_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'serving_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "serving_latency_seconds_count 2" in text
        assert text.endswith("\n")

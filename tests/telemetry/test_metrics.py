"""Instruments and the registry: counters, gauges, histograms, null twin."""

import math

import numpy as np
import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_latency_buckets,
    power_of_two_buckets,
)


class TestBuckets:
    def test_default_latency_buckets_span_us_to_seconds(self):
        bounds = default_latency_buckets()
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(10.0)
        assert list(bounds) == sorted(bounds)

    def test_power_of_two_buckets(self):
        assert power_of_two_buckets(3) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            power_of_two_buckets(-1)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc(1)
        assert gauge.value == pytest.approx(4.0)

    def test_set_max_is_high_water(self):
        gauge = Gauge("g")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value == pytest.approx(3.0)


class TestHistogramValidation:
    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())

    def test_rejects_non_positive_and_non_finite(self):
        for bad in ([0.0, 1.0], [-1.0, 1.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="positive and finite"):
                Histogram("h", buckets=bad)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=[1.0, 1.0, 2.0])


class TestHistogram:
    def test_counts_sum_min_max(self):
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 9.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(14.0)
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(9.0)
        assert hist.mean == pytest.approx(3.5)
        # overflow bucket caught the 9.0
        assert int(hist.bucket_counts[-1]) == 1

    def test_observe_many_matches_observe(self):
        values = np.random.default_rng(0).uniform(1e-5, 5.0, size=500)
        one_by_one = Histogram("a")
        vectorised = Histogram("b")
        for value in values:
            one_by_one.observe(value)
        vectorised.observe_many(values)
        assert one_by_one.count == vectorised.count
        assert one_by_one.total == pytest.approx(vectorised.total)
        assert np.array_equal(one_by_one.bucket_counts,
                              vectorised.bucket_counts)
        assert vectorised.p95 == pytest.approx(one_by_one.p95)

    def test_observe_many_empty_is_noop(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0

    def test_quantiles_clamped_by_observed_range(self):
        hist = Histogram("h", buckets=[1.0, 10.0, 100.0])
        hist.observe(5.0)
        hist.observe(6.0)
        # both land in the (1, 10] bucket; interpolation must not escape
        # the observed [5, 6] range
        assert 5.0 <= hist.p50 <= 6.0
        assert 5.0 <= hist.p99 <= 6.0

    def test_quantile_of_uniform_samples_is_close(self):
        hist = Histogram("h")
        hist.observe_many(np.linspace(1e-4, 1e-2, 1000))
        assert hist.quantile(0.5) == pytest.approx(5e-3, rel=0.5)

    def test_quantile_validation_and_empty(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.mean)

    def test_to_dict(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        payload = hist.to_dict()
        assert payload["count"] == 0
        assert payload["p99"] is None
        hist.observe(1.5)
        payload = hist.to_dict()
        assert payload["count"] == 1
        assert payload["buckets"] == {"1": 0, "2": 1}
        assert payload["overflow"] == 0


class TestMetricsRegistry:
    def test_create_or_get_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_observe_convenience(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.5)
        assert registry.histogram("lat").count == 1

    def test_span_duration_feeds_histogram(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        assert registry.histogram("span.work.seconds").count == 1
        assert len(registry.spans) == 1

    def test_dropped_span_still_feeds_its_histogram(self):
        """Retention bounds memory, not the metrics: the import-time
        default registry keeps 8192 records so RSS does not follow the op
        count, and its histograms must not go quiet after that."""
        registry = MetricsRegistry(max_spans=2)
        for _ in range(5):
            with registry.span("work"):
                pass
        assert len(registry.spans) == 2
        assert registry.spans.dropped == 3
        assert registry.histogram("span.work.seconds").count == 5

    def test_import_time_default_registry_has_a_small_fixed_retention(self):
        import subprocess
        import sys

        # A fresh interpreter: another test may have swapped the registry.
        retained = subprocess.run(
            [sys.executable, "-c",
             "from repro.telemetry.runtime import get_registry, enable\n"
             "print(get_registry().spans.max_spans, "
             "enable().spans.max_spans)"],
            check=True, capture_output=True, text=True).stdout.split()
        assert retained == ["8192", "100000"]
        assert MetricsRegistry().spans.max_spans == 100_000

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.observe("h", 0.1)
        with registry.span("s"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 2.0}
        assert set(snapshot["histograms"]) == {"h", "span.s.seconds"}
        assert snapshot["spans"]["recorded"] == 1
        assert "records" not in snapshot["spans"]
        with_spans = registry.snapshot(include_spans=True)
        assert with_spans["spans"]["records"][0]["name"] == "s"

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        with registry.span("s"):
            pass
        registry.reset()
        assert registry.metrics() == {}
        assert len(registry.spans) == 0


class TestNullRegistry:
    def test_disabled_and_inert(self):
        registry = NullRegistry()
        assert registry.enabled is False
        registry.counter("c").inc()
        registry.gauge("g").set(9)
        registry.gauge("g").set_max(9)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe_many([1.0, 2.0])
        registry.observe("h", 1.0)
        with registry.span("s", tag=1) as span:
            span.set_attribute("k", "v")
        snapshot = registry.snapshot()
        assert snapshot == {"enabled": False, "counters": {}, "gauges": {},
                            "histograms": {},
                            "spans": {"recorded": 0, "dropped": 0}}

    def test_shared_instruments(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.histogram("a") is registry.histogram("b")

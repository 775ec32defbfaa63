"""Unit tests for the metric primitives and the registry."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = Counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(4)
        assert counter.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_explicit_set(self):
        gauge = Gauge("g")
        gauge.set(7)
        assert gauge.value == 7.0
        assert not gauge.callback_backed

    def test_callback_backed_reads_lazily(self):
        backing = {"value": 1.0}
        gauge = Gauge("g", fn=lambda: backing["value"])
        assert gauge.value == 1.0
        backing["value"] = 9.0
        assert gauge.value == 9.0
        assert gauge.callback_backed

    def test_set_on_callback_gauge_rejected(self):
        gauge = Gauge("g", fn=lambda: 0.0)
        with pytest.raises(ConfigurationError):
            gauge.set(1.0)


class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        histogram = Histogram("h", bounds=(10, 100))
        for value in (5, 10, 50, 500):
            histogram.observe(value)
        # <=10, <=100, overflow
        assert histogram.bucket_counts() == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.sum == 565

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=())
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(10, 10))
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(10, 5))

    def test_accepts_increasing_bounds(self):
        histogram = Histogram("h", bounds=(0, 1, 2, 4, 8))
        assert histogram.bounds == (0.0, 1.0, 2.0, 4.0, 8.0)

    def test_quantile_interpolates(self):
        histogram = Histogram("h", bounds=(10, 20, 30))
        for value in range(1, 31):
            histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(15, abs=5)
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)
        assert histogram.quantile(1.0) == 30

    def test_quantile_empty_and_invalid(self):
        histogram = Histogram("h", bounds=(1,))
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)

    def test_snapshot_shape(self):
        histogram = Histogram("h", bounds=(1, 2))
        payload = histogram.snapshot()
        assert payload["count"] == 0
        assert "p50" not in payload
        histogram.observe(1.5)
        payload = histogram.snapshot()
        assert payload["min"] == payload["max"] == 1.5
        assert payload["counts"] == [0, 1, 0]


class TestQuantileSketch:
    def test_relative_error_bound(self):
        sketch = QuantileSketch("s")
        values = [1.0003**i for i in range(2000)]
        for value in values:
            sketch.observe(value)
        exact = sorted(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            estimate = sketch.quantile(q)
            truth = exact[min(int(q * len(exact)), len(exact) - 1)]
            assert estimate == pytest.approx(truth, rel=0.06)

    def test_zero_and_negative_values(self):
        sketch = QuantileSketch("s")
        sketch.observe(0.0)
        sketch.observe(-1.0)
        sketch.observe(5.0)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.06)

    def test_merge(self):
        left = QuantileSketch("l")
        right = QuantileSketch("r")
        for i in range(1, 101):
            (left if i % 2 else right).observe(float(i))
        left.merge(right)
        assert left.count == 100
        assert left.quantile(0.5) == pytest.approx(50, rel=0.06)

    def test_merge_growth_mismatch_rejected(self):
        left = QuantileSketch("l", growth=1.05)
        right = QuantileSketch("r", growth=1.1)
        with pytest.raises(ConfigurationError):
            left.merge(right)

    def test_invalid_growth(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch("s", growth=1.0)

    def test_empty_quantile(self):
        assert QuantileSketch("s").quantile(0.5) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        q=st.floats(0.0, 1.0),
    )
    def test_quantile_within_observed_range(self, values, q):
        sketch = QuantileSketch("s")
        for value in values:
            sketch.observe(value)
        estimate = sketch.quantile(q)
        assert min(values) <= estimate <= max(values)
        assert sketch.count == len(values)
        assert sketch.sum == pytest.approx(math.fsum(values))

    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(st.floats(-1e3, 1e3), max_size=5),
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 0.1]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(1e-12, 1e-6),
                st.floats(1e6, 1e15),
            ),
            max_size=60,
        ),
    )
    def test_observe_many_matches_repeated_observe(self, before, values):
        """Same state, bit for bit: ``_sum`` included, which a
        compensated or reordered summation would change."""
        one_by_one = MetricsRegistry()
        batched = MetricsRegistry()
        for registry in (one_by_one, batched):
            sketch = registry.sketch("s")
            for value in before:
                sketch.observe(value)
        for value in values:
            one_by_one.sketch("s").observe(value)
        batched.sketch("s").observe_many(iter(values))
        assert json.dumps(batched.snapshot_state()) == json.dumps(
            one_by_one.snapshot_state()
        )


class TestMetricsRegistry:
    def test_idempotent_creation(self):
        registry = MetricsRegistry()
        first = registry.counter("a.total")
        second = registry.counter("a.total")
        assert first is second
        assert len(registry) == 1
        assert "a.total" in registry

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("")

    def test_get_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().get("nope")

    def test_collect_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z.total").inc()
        registry.gauge("a.level").set(3)
        registry.histogram("m.sizes", (1, 2)).observe(1.5)
        registry.sketch("m.latency").observe(0.01)
        collected = registry.collect()
        assert list(collected) == sorted(collected)
        # Must survive a JSON round trip losslessly.
        assert json.loads(json.dumps(collected)) == collected

    def test_describe(self):
        registry = MetricsRegistry()
        registry.counter("a", help="alpha")
        assert registry.describe() == {"a": ("counter", "alpha")}
        assert registry.names() == ["a"]

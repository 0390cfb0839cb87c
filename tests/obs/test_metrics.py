"""The observability layer — instruments, snapshots, merging, spans."""

import json
import pickle
import random

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    SNAPSHOT_SCHEMA,
    set_registry,
    use_registry,
)
from repro.obs.metrics import Histogram, _bucket_index
from repro.schema import require_valid, validate


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c") is not registry.counter("d")


class TestGauge:
    def test_last_value_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.0)
        gauge.set(7.5)
        assert gauge.value == 7.5
        assert gauge.updates == 2


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0
        assert histogram.max == 4.0

    def test_percentiles_bracket_the_data(self):
        histogram = Histogram("h")
        for i in range(1, 101):
            histogram.observe(i / 10.0)
        # Bucketed quantiles land within one bucket (~26%) of the truth.
        assert histogram.p50 == pytest.approx(5.0, rel=0.3)
        assert histogram.p95 == pytest.approx(9.5, rel=0.3)
        assert histogram.percentile(1.0) == histogram.max

    def test_zero_and_negative_fall_in_underflow_bucket(self):
        histogram = Histogram("h")
        histogram.observe(0.0)
        histogram.observe(-1.0)
        assert histogram.count == 2
        assert histogram.p50 == 0.0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").p95 == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_bucket_boundaries_are_exclusive_below(self):
        # An exact boundary value lands in the bucket it bounds above.
        index = _bucket_index(1.0)
        assert _bucket_index(1.0001) == index + 1

    def test_merge_matches_single_stream(self):
        merged, single = Histogram("h"), Histogram("h")
        first, second = Histogram("h"), Histogram("h")
        rng = random.Random(7)
        for i in range(200):
            value = rng.uniform(0.0001, 10.0)
            single.observe(value)
            (first if i % 2 else second).observe(value)
        merged.merge(first)
        merged.merge(second)
        assert merged.count == single.count
        assert merged.total == pytest.approx(single.total)
        assert merged.buckets == single.buckets
        assert merged.p50 == single.p50
        assert merged.p95 == single.p95

    def test_merge_is_associative(self):
        rng = random.Random(3)
        parts = []
        for _ in range(3):
            histogram = Histogram("h")
            for _ in range(50):
                histogram.observe(rng.uniform(0.001, 5.0))
            parts.append(histogram)
        left = Histogram("h")   # (a + b) + c
        left.merge(parts[0])
        left.merge(parts[1])
        left.merge(parts[2])
        inner = Histogram("h")  # a + (b + c)  -- via a fresh accumulator
        inner.merge(parts[1])
        inner.merge(parts[2])
        right = Histogram("h")
        right.merge(parts[0])
        right.merge(inner)
        assert left.buckets == right.buckets
        assert left.count == right.count
        assert left.total == pytest.approx(right.total)
        assert (left.p50, left.p95, left.max) == (right.p50, right.p95, right.max)


class TestSpan:
    def test_records_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        histogram = registry.histograms["work.seconds"]
        assert histogram.count == 1
        assert histogram.max >= 0.0

    def test_spans_nest(self):
        registry = MetricsRegistry()
        with registry.span("outer") as outer:
            assert outer.path == "outer"
            with registry.span("inner") as inner:
                assert inner.path == "outer/inner"
            assert outer.path == "outer"
        assert registry.histograms["outer.seconds"].count == 1
        assert registry.histograms["inner.seconds"].count == 1
        assert registry._span_stack == []

    def test_decorator_form(self):
        registry = MetricsRegistry()

        @registry.span("fn")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert registry.histograms["fn.seconds"].count == 1

    def test_exception_still_records(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert registry.histograms["boom.seconds"].count == 1
        assert registry._span_stack == []


class TestDisabledRegistry:
    def test_instruments_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.histogram("b")
        registry.counter("a").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        with registry.span("s"):
            pass
        assert registry.counters == {}
        assert registry.histograms == {}

    def test_null_span_decorator_returns_function_unchanged(self):
        def f():
            return 1

        assert MetricsRegistry(enabled=False).span("s")(f) is f

    def test_default_registry_is_disabled(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled


class TestCurrentRegistry:
    def test_use_registry_installs_and_restores(self):
        registry = MetricsRegistry()
        assert get_registry() is NULL_REGISTRY
        with use_registry(registry) as installed:
            assert installed is registry
            assert get_registry() is registry
        assert get_registry() is NULL_REGISTRY

    def test_set_registry_none_restores_null(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
        finally:
            set_registry(None)
        assert previous is NULL_REGISTRY
        assert get_registry() is NULL_REGISTRY

    def test_nested_use_registry(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer


class TestSnapshot:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("tests").inc(3)
        registry.gauge("buffer").set(42.0)
        histogram = registry.histogram("lat.seconds")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        return registry

    def test_snapshot_is_json_round_trippable(self):
        snapshot = self.build().snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded == snapshot
        assert validate(decoded, SNAPSHOT_SCHEMA) == []

    def test_snapshot_validates(self):
        assert validate(self.build().snapshot(), SNAPSHOT_SCHEMA) == []

    def test_from_snapshot_round_trips(self):
        original = self.build()
        rebuilt = MetricsRegistry.from_snapshot(original.snapshot())
        assert rebuilt.snapshot() == original.snapshot()

    def test_merge_snapshot_adds_counters_and_buckets(self):
        first, second = self.build(), self.build()
        first.merge_snapshot(second.snapshot())
        assert first.counters["tests"].value == 6
        assert first.histograms["lat.seconds"].count == 6
        assert first.gauges["buffer"].value == 42.0
        assert first.gauges["buffer"].updates == 2

    def test_merge_order_does_not_change_totals(self):
        parts = [self.build().snapshot() for _ in range(3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for part in parts:
            forward.merge_snapshot(part)
        for part in reversed(parts):
            backward.merge_snapshot(part)
        assert forward.snapshot() == backward.snapshot()

    def test_wrong_schema_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="schema"):
            registry.merge_snapshot({"schema": "other/v9"})

    def test_registry_pickles(self):
        # Worker processes ship registries' snapshots, but the registry
        # itself must survive pickling too (campaign configs may hold one).
        registry = self.build()
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()


class TestValidation:
    def test_rejects_non_object(self):
        assert validate([1, 2], SNAPSHOT_SCHEMA) != []

    def test_rejects_missing_sections(self):
        problems = validate({"schema": "repro.obs/v1"}, SNAPSHOT_SCHEMA)
        assert len(problems) == 3

    def test_rejects_bad_counter(self):
        snapshot = MetricsRegistry().snapshot()
        snapshot["counters"]["bad"] = -1
        assert any("bad" in p for p in validate(snapshot, SNAPSHOT_SCHEMA))

    def test_rejects_bucket_count_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        snapshot["histograms"]["h"]["count"] = 99
        assert any("sum to" in p for p in validate(snapshot, SNAPSHOT_SCHEMA))

    def test_require_valid_raises_with_details(self):
        with pytest.raises(ValueError, match="invalid metrics snapshot"):
            require_valid({}, SNAPSHOT_SCHEMA)
        snapshot = MetricsRegistry().snapshot()
        assert require_valid(snapshot, SNAPSHOT_SCHEMA) is snapshot


class TestSummary:
    def test_empty_summary(self):
        assert "no metrics" in MetricsRegistry().summary()

    def test_summary_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("campaign.tests").inc(4)
        registry.gauge("online.buffer_rows").set(128)
        registry.histogram("check.seconds").observe(0.25)
        text = registry.summary()
        assert "campaign.tests" in text
        assert "online.buffer_rows" in text
        assert "check (ms)" in text  # durations scale to milliseconds
        assert "p95" in text

"""Metrics registry: counters, gauges, histograms, snapshots."""

import pytest

from repro.errors import MetricsError
from repro.obs.metrics import (DEFAULT_BUCKETS, TIME_BUCKETS_US, Counter,
                               Gauge, Histogram, MetricsRegistry)


class TestCounter:

    def test_inc_and_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labels_split_and_total(self):
        counter = Counter("frames")
        counter.inc(kind="PUB")
        counter.inc(kind="PUB")
        counter.inc(kind="REG")
        assert counter.value == 3
        assert counter.labelled(kind="PUB") == 2
        assert counter.labelled(kind="GHOST") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricsError):
            Counter("c").inc(-1)

    def test_collect_flattens_labels(self):
        counter = Counter("frames")
        counter.inc(kind="PUB")
        samples = {}
        counter.collect(samples)
        assert samples == {"frames": 1, "frames{kind=PUB}": 1}


class TestGauge:

    def test_set_and_read(self):
        gauge = Gauge("g")
        gauge.set(7)
        assert gauge.value == 7

    def test_callback_gauge(self):
        state = {"depth": 3}
        gauge = Gauge("g", fn=lambda: state["depth"])
        assert gauge.value == 3
        state["depth"] = 9
        assert gauge.value == 9

    def test_callback_gauge_rejects_set(self):
        gauge = Gauge("g", fn=lambda: 1)
        with pytest.raises(MetricsError):
            gauge.set(2)


class TestHistogram:

    def test_summary_stats(self):
        hist = Histogram("h", bounds=(1, 10, 100))
        for value in (1, 5, 50, 500):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 556
        assert hist.mean == 139.0
        assert hist.bucket_counts == [1, 1, 1, 1]

    @pytest.mark.parametrize("bounds", [DEFAULT_BUCKETS, TIME_BUCKETS_US,
                                        (0.5,)])
    def test_bucket_is_the_first_bound_not_below_the_value(self, bounds):
        """The bisect lands where the walk over every bound did:
        below, on and above each bound, and past the last."""
        hist = Histogram("h", bounds=bounds)
        walked = [0] * (len(bounds) + 1)
        for bound in bounds:
            for value in (bound - 0.25, bound, bound + 0.25):
                hist.observe(value)
                walked[next((index for index, upper in enumerate(bounds)
                             if value <= upper), len(bounds))] += 1
        hist.observe(bounds[-1] * 10)
        walked[-1] += 1
        assert hist.bucket_counts == walked
        assert sum(walked) == hist.count == 3 * len(bounds) + 1

    def test_empty_histogram_collects_zeroes(self):
        samples = {}
        Histogram("h").collect(samples)
        assert samples["h.count"] == 0
        assert samples["h.mean"] == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("h", bounds=())
        with pytest.raises(MetricsError):
            Histogram("h", bounds=(5, 1))
        with pytest.raises(MetricsError):
            Histogram("h", bounds=(1, 1, 2))


class TestRegistry:

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(MetricsError):
            registry.gauge("a")

    def test_unknown_metric(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().get("nope")

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.gauge("a.depth").set(1)
        registry.histogram("m.fanout").observe(3)
        snapshot = registry.snapshot()
        assert snapshot["z.count"] == 2
        assert snapshot["a.depth"] == 1
        assert snapshot["m.fanout.count"] == 1
        assert all(isinstance(v, (int, float))
                   for v in snapshot.values())

    def test_shared_registry_composes_components(self):
        """Two components asking for the same name share the metric."""
        registry = MetricsRegistry()
        a = registry.counter("shared.total")
        b = registry.counter("shared.total")
        a.inc()
        b.inc()
        assert registry.snapshot()["shared.total"] == 2

"""Tests of the metrics registry, snapshots and merge semantics."""

import pytest

from repro.obs.metrics import (
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("cce.flush") == "cce.flush"

    def test_labelled(self):
        assert metric_key("ovb.state_transitions", "PN") == "ovb.state_transitions{PN}"


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("a", label="x")
        assert reg.counter("a") == 5
        assert reg.counter("a", label="x") == 1

    def test_gauge_keeps_max(self):
        reg = MetricsRegistry()
        reg.set_gauge("ovb.size", 3)
        reg.set_gauge("ovb.size", 7)
        reg.set_gauge("ovb.size", 2)
        assert reg.snapshot().gauge("ovb.size") == 7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1, 5, 3):
            reg.observe("occ", v)
        h = reg.snapshot().histogram("occ")
        assert (h.count, h.total, h.min, h.max) == (3, 9.0, 1, 5)
        assert h.mean == 3.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.counter("a") == 0

    def test_merge_snapshot_adds_counters(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.merge_snapshot(MetricsSnapshot(counters={"a": 3, "b": 1}))
        assert reg.counter("a") == 5
        assert reg.counter("b") == 1


class TestSnapshot:
    def test_merged_counters_add_gauges_max_histograms_pool(self):
        a = MetricsSnapshot(
            counters={"c": 1},
            gauges={"g": 5.0},
            histograms={"h": HistogramSummary(2, 10.0, 3.0, 7.0)},
        )
        b = MetricsSnapshot(
            counters={"c": 2, "d": 4},
            gauges={"g": 3.0},
            histograms={"h": HistogramSummary(1, 1.0, 1.0, 1.0)},
        )
        m = a.merged(b)
        assert m.counter("c") == 3
        assert m.counter("d") == 4
        assert m.gauge("g") == 5.0
        h = m.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (3, 11.0, 1.0, 7.0)

    def test_merged_does_not_mutate_inputs(self):
        a = MetricsSnapshot(counters={"c": 1})
        b = MetricsSnapshot(counters={"c": 2})
        a.merged(b)
        assert a.counter("c") == 1 and b.counter("c") == 2

    def test_scaled_multiplies_counters_keeps_gauges(self):
        s = MetricsSnapshot(
            counters={"c": 2},
            gauges={"g": 5.0},
            histograms={"h": HistogramSummary(2, 6.0, 1.0, 5.0)},
        )
        t = s.scaled(3)
        assert t.counter("c") == 6
        assert t.gauge("g") == 5.0
        h = t.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (6, 18.0, 1.0, 5.0)

    def test_scaled_zero_empties_histograms(self):
        s = MetricsSnapshot(histograms={"h": HistogramSummary(2, 6.0, 1.0, 5.0)})
        assert s.scaled(0).histogram("h").count == 0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            HistogramSummary(1, 1.0, 1.0, 1.0).scaled(-1)

    def test_counter_family(self):
        s = MetricsSnapshot(
            counters={
                "ovb.state_transitions{PN}": 2,
                "ovb.state_transitions{C}": 5,
                "ovb.state_transitions": 1,  # bare series excluded
                "other{PN}": 9,
            }
        )
        assert s.counter_family("ovb.state_transitions") == {"PN": 2, "C": 5}

    def test_dict_roundtrip(self):
        s = MetricsSnapshot(
            counters={"c": 2},
            gauges={"g": 5.0},
            histograms={"h": HistogramSummary(2, 6.0, 1.0, 5.0)},
        )
        back = MetricsSnapshot.from_dict(s.as_dict())
        assert back.counter("c") == 2
        assert back.gauge("g") == 5.0
        assert back.histogram("h").total == 6.0


class TestPercentiles:
    def test_exact_when_under_cap(self):
        h = HistogramSummary()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.p50 == pytest.approx(50.5)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0
        assert h.p95 == pytest.approx(95.05)
        assert h.p99 == pytest.approx(99.01)

    def test_empty_series_has_no_percentiles(self):
        h = HistogramSummary()
        assert h.p50 is None and h.p95 is None and h.p99 is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HistogramSummary().percentile(101.0)

    def test_reservoir_bounded_and_deterministic(self):
        from repro.obs.metrics import RESERVOIR_CAP

        a, b = HistogramSummary(), HistogramSummary()
        for v in range(10 * RESERVOIR_CAP):
            a.observe(float(v))
            b.observe(float(v))
        assert len(a.samples) <= RESERVOIR_CAP
        assert a.samples == b.samples  # no randomness anywhere
        # Approximation stays tight for a uniform stream.
        assert a.p50 == pytest.approx(10 * RESERVOIR_CAP / 2, rel=0.05)
        assert a.p99 == pytest.approx(10 * RESERVOIR_CAP * 0.99, rel=0.05)

    def test_merged_pools_reservoirs(self):
        low, high = HistogramSummary(), HistogramSummary()
        for v in range(100):
            low.observe(float(v))          # 0..99
            high.observe(float(v + 100))   # 100..199
        merged = low.merged(high)
        assert merged.count == 200
        assert merged.p50 == pytest.approx(99.5, abs=2.0)
        assert merged.p99 == pytest.approx(197.0, abs=3.0)
        # Inputs untouched.
        assert len(low.samples) == 100 and len(high.samples) == 100

    def test_scaled_preserves_percentiles(self):
        h = HistogramSummary()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        scaled = h.scaled(5)
        assert scaled.count == 20
        assert scaled.p50 == h.p50
        assert scaled.p95 == h.p95

    def test_dict_roundtrip_preserves_percentiles(self):
        h = HistogramSummary()
        for v in range(50):
            h.observe(float(v))
        back = HistogramSummary.from_dict(h.as_dict())
        assert back.p50 == h.p50
        assert back.p95 == h.p95
        assert back.p99 == h.p99
        d = h.as_dict()
        assert d["p50"] == h.p50 and d["p95"] == h.p95 and d["p99"] == h.p99

    def test_legacy_dict_without_samples_still_loads(self):
        back = HistogramSummary.from_dict(
            {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}
        )
        assert back.count == 3
        assert back.p50 is None

    def test_snapshot_roundtrip_carries_reservoir(self):
        reg = MetricsRegistry()
        for v in range(20):
            reg.observe("lat", float(v))
        snap = reg.snapshot()
        back = MetricsSnapshot.from_dict(snap.as_dict())
        assert back.histogram("lat").p95 == snap.histogram("lat").p95

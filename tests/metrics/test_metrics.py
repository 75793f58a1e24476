"""Tests for histograms, throughput series, and summaries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics import LatencyHistogram, ThroughputSeries, summarize


class TestHistogram:
    def test_mean(self):
        h = LatencyHistogram()
        h.extend([1.0, 2.0, 3.0])
        assert h.mean() == pytest.approx(2.0)

    def test_percentiles_exact(self):
        h = LatencyHistogram()
        h.extend(range(1, 101))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_single_sample(self):
        h = LatencyHistogram()
        h.record(5.0)
        assert h.percentile(99) == 5.0
        assert h.min() == h.max() == 5.0

    def test_empty_raises(self):
        h = LatencyHistogram("empty")
        with pytest.raises(ReproError):
            h.mean()
        with pytest.raises(ReproError):
            h.percentile(50)

    def test_negative_sample_rejected(self):
        h = LatencyHistogram()
        with pytest.raises(ReproError):
            h.record(-1.0)

    def test_percentile_out_of_range(self):
        h = LatencyHistogram()
        h.record(1.0)
        with pytest.raises(ReproError):
            h.percentile(101)

    def test_merged(self):
        a = LatencyHistogram("a")
        a.extend([1.0, 2.0])
        b = LatencyHistogram()
        b.extend([3.0])
        merged = a.merged_with(b)
        assert merged.count == 3
        assert merged.mean() == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_monotone_and_bounded(self, samples):
        h = LatencyHistogram()
        h.extend(samples)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert h.min() <= p50 <= p95 <= p99 <= h.max()


class TestThroughputSeries:
    def test_bucketing(self):
        s = ThroughputSeries(bucket_width=1.0)
        for t in [0.1, 0.9, 1.5, 3.2]:
            s.record(t)
        assert s.buckets() == [(0.0, 2), (1.0, 1), (2.0, 0), (3.0, 1)]

    def test_total_and_mean_rate(self):
        s = ThroughputSeries(bucket_width=2.0)
        for t in [0.0, 1.0, 2.0, 3.0]:
            s.record(t)
        assert s.total == 4
        assert s.mean_rate(4.0) == pytest.approx(1.0)

    def test_mean_rate_is_over_the_window_not_the_buckets(self):
        # Two seconds measured from t=0.6 touch three one-second buckets.
        s = ThroughputSeries(bucket_width=1.0)
        for t in [0.6, 1.0, 1.5, 2.5]:
            s.record(t)
        assert len(s.buckets()) == 3
        assert s.mean_rate(2.0) == pytest.approx(2.0)

    def test_stalled_buckets(self):
        s = ThroughputSeries(bucket_width=1.0)
        s.record(0.5)
        s.record(4.5)
        assert s.stalled_buckets() == 3

    def test_empty(self):
        s = ThroughputSeries(bucket_width=1.0)
        assert s.buckets() == []
        assert s.mean_rate(1.0) == 0.0

    def test_invalid_width(self):
        with pytest.raises(ReproError):
            ThroughputSeries(bucket_width=0.0)


class TestSummary:
    def test_summary_fields(self):
        h = LatencyHistogram()
        h.extend(range(1, 101))
        s = summarize(h)
        assert s.count == 100
        assert s.avg == pytest.approx(50.5)
        assert s.median == pytest.approx(50.5)
        assert s.p99 > s.p95 > s.median

    def test_scaled(self):
        h = LatencyHistogram()
        h.extend([0.001, 0.002])
        ms = summarize(h).scaled(1000.0)
        assert ms.avg == pytest.approx(1.5)
        assert ms.count == 2

    def test_as_row_matches_table2_columns(self):
        h = LatencyHistogram()
        h.extend([1.0, 2.0, 3.0])
        row = summarize(h).as_row()
        assert set(row) == {"pct99", "pct95", "median", "avg"}

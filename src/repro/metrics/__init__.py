"""Measurement primitives: latency histograms, throughput series, counters."""

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.series import ThroughputSeries
from repro.metrics.stats import LatencySummary, summarize

__all__ = [
    "LatencyHistogram",
    "LatencySummary",
    "ThroughputSeries",
    "summarize",
]

"""Exact latency histogram.

Samples are kept verbatim (simulation runs produce at most a few hundred
thousand), so percentiles are exact rather than bucket-interpolated.
"""

from __future__ import annotations

import math

from repro.errors import ReproError


class LatencyHistogram:
    """Collects latency samples (seconds) and reports exact statistics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, value: float) -> None:
        if value < 0:
            raise ReproError(f"negative latency sample: {value}")
        self._samples.append(value)
        self._sorted = None

    def extend(self, values) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        """The raw samples, in arrival order (a copy)."""
        return list(self._samples)

    def _ensure_sorted(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def mean(self) -> float:
        if not self._samples:
            raise ReproError(f"histogram {self.name!r} is empty")
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Exact percentile by linear interpolation, p in [0, 100]."""
        if not self._samples:
            raise ReproError(f"histogram {self.name!r} is empty")
        if not 0 <= p <= 100:
            raise ReproError(f"percentile out of range: {p}")
        data = self._ensure_sorted()
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low_index = math.floor(rank)
        high_index = math.ceil(rank)
        if low_index == high_index:
            return data[low_index]
        weight = rank - low_index
        # This form is exact at weight 0/1 and never exceeds the bracket,
        # unlike the symmetric a*(1-w) + b*w formulation.
        return data[low_index] + weight * (data[high_index] - data[low_index])

    def min(self) -> float:
        return self._ensure_sorted()[0]

    def max(self) -> float:
        return self._ensure_sorted()[-1]

    def merged_with(self, other: "LatencyHistogram") -> "LatencyHistogram":
        merged = LatencyHistogram(name=self.name or other.name)
        merged._samples = self._samples + other._samples
        return merged

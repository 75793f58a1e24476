"""Time-bucketed throughput series (commits per unit time, Figure 5b/5d)."""

from __future__ import annotations

from repro.errors import ReproError


class ThroughputSeries:
    """Counts events into fixed-width time buckets."""

    def __init__(self, bucket_width: float, name: str = "") -> None:
        if bucket_width <= 0:
            raise ReproError(f"bucket width must be positive: {bucket_width}")
        self.bucket_width = bucket_width
        self.name = name
        self._buckets: dict[int, int] = {}
        self.total = 0

    def record(self, time: float, count: int = 1) -> None:
        index = int(time // self.bucket_width)
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.total += count

    def buckets(self) -> list[tuple[float, int]]:
        """(bucket start time, count) pairs, dense over the observed span —
        empty interior buckets appear as zeros so gaps are visible."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        return [
            (index * self.bucket_width, self._buckets.get(index, 0))
            for index in range(first, last + 1)
        ]

    def mean_rate(self, window: float) -> float:
        """Average events/second over the ``window`` seconds the events
        were counted in. (A window that does not start on a bucket edge
        touches one bucket more than it spans, so the buckets would
        overstate it.)"""
        return self.total / window

    def stalled_buckets(self) -> int:
        """Number of interior buckets with zero events (availability gaps)."""
        return sum(1 for _, count in self.buckets() if count == 0)

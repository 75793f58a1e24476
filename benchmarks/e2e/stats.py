"""Order statistics used by every metric in the benchmark.

One helper implements the percentile rule of the choosing-metrics guide:
a timing is reported as its median and *the highest percentile that has
at least ten samples beyond it*, together with the sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], level: float) -> float:
    """Nearest-rank percentile (``level`` in (0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail_level(count: int, cap: float = 99.0) -> float:
    """The highest percentile level, at most ``cap``, that leaves at least
    ``TAIL_MIN_BEYOND`` of ``count`` samples beyond it. Below
    2 x TAIL_MIN_BEYOND samples no tail is supported and the median is
    all that can be said."""
    if count < 2 * TAIL_MIN_BEYOND:
        return 50.0
    level = 100.0 * (count - TAIL_MIN_BEYOND) / count
    return min(cap, math.floor(level * 10.0) / 10.0)


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: value, the level actually used, n."""

    value: float
    level: float
    count: int


def tail(samples: list[float], cap: float = 99.0) -> Tail:
    """``samples``' highest supported percentile (see module docstring)."""
    level = supported_tail_level(len(samples), cap)
    return Tail(percentile(samples, level), level, len(samples))


def median(samples: list[float]) -> float:
    return percentile(samples, 50.0)


@dataclass(frozen=True)
class Spread:
    """Median, quartiles and n of repeated host-clock measurements."""

    median: float
    q1: float
    q3: float
    count: int


def spread(values: list[float]) -> Spread:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the same rule the driver applies across runs)."""
    if len(values) < 2:
        only = values[0]
        return Spread(only, only, only, len(values))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Spread(statistics.median(values), q1, q3, len(values))

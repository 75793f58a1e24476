"""Hierarchical deterministic random-number streams.

Every source of randomness in a simulation derives from one root seed.
Child streams are derived by hashing ``(parent_seed, label)``, so adding a
new consumer of randomness never perturbs the draws seen by existing
consumers — runs stay comparable across code changes.
"""

from __future__ import annotations

import hashlib
import random
from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt, tau as _TWOPI


def _derive_seed(parent_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named, seeded random stream with helpers for latency sampling."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream. Same (seed, label) → same stream."""
        return RngStream(_derive_seed(self.seed, label), name=f"{self.name}/{label}")

    # -- raw draws ---------------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    # -- shaped draws ------------------------------------------------------

    def lognormal_from_median(self, median: float, sigma: float) -> float:
        """Lognormal draw parameterised by its median (natural for latency:
        the median is what you observe; sigma widens the tail).

        ``median * exp(gauss(0, sigma))`` with ``random.Random.gauss``
        inlined: the same two uniform draws per pair, the same cached
        second value, so the stream is bit-for-bit what ``gauss`` makes."""
        rnd = self._random
        z = rnd.gauss_next
        rnd.gauss_next = None
        if z is None:
            uniform = rnd.random
            x2pi = uniform() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
            z = _cos(x2pi) * g2rad
            rnd.gauss_next = _sin(x2pi) * g2rad
        return median * _exp(z * sigma)

    def jittered(self, base: float, fraction: float) -> float:
        """``base`` perturbed uniformly by ±``fraction`` of itself."""
        return base * self._random.uniform(1.0 - fraction, 1.0 + fraction)

    def bernoulli(self, probability: float) -> bool:
        return self._random.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStream({self.name!r}, seed={self.seed})"

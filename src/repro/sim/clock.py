"""Per-host skewed clocks for clock-bound leases.

Real machines do not share the simulator's global time: each host reads
a local clock with a bounded rate drift and an arbitrary offset. Leader
leases (``repro.reads``) are only safe under an *assumed* drift bound, so
the simulation must model drift deterministically — every host gets a
:class:`SkewedClock` whose offset/drift are drawn from a seeded child
RNG stream, and lease arithmetic pads durations by the assumed bound.

A skewed clock is a pure function of the event loop's time, so it is
automatically pause-safe: a stop-the-world pause simply makes the local
clock jump forward at resume, exactly like a real VM freeze.
"""

from __future__ import annotations


class SkewedClock:
    """A local clock: ``offset + loop.now * (1 + drift)``.

    ``drift`` is the fractional rate error (positive = runs fast). Lease
    safety requires ``abs(drift) <= CLOCK_DRIFT_BOUND`` for every host;
    :func:`draw_skew` enforces that by construction.
    """

    def __init__(self, loop, offset: float = 0.0, drift: float = 0.0) -> None:
        self.loop = loop
        self.offset = offset
        self.drift = drift

    def now(self) -> float:
        return self.offset + self.loop.now * (1.0 + self.drift)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkewedClock(offset={self.offset:.6f}, drift={self.drift:.2e})"


def draw_skew(loop, rng, drift_bound: float, max_offset: float = 0.05) -> SkewedClock:
    """Draw a host clock from a dedicated RNG stream.

    The caller passes a *child* stream (``rng.child(f"clock-skew/{name}")``)
    so adding clocks to a topology never perturbs existing seeded
    schedules. Offset is uniform in [0, max_offset); drift is uniform in
    [-drift_bound, +drift_bound].
    """
    offset = rng.uniform(0.0, max_offset)
    drift = rng.uniform(-drift_bound, drift_bound) if drift_bound > 0 else 0.0
    return SkewedClock(loop, offset=offset, drift=drift)

"""Deterministic simulation profiler: where does wall-clock time go?

The simulator is deterministic in (scenario, seed); its *wall-clock*
cost is not, and until now there was no way to see which layer burns
it. This subsystem attributes real (``time.perf_counter``) seconds and
invocation counts to named components — event-loop dispatch, network
delivery, per-service message handling, binlog encode/decode, engine
commits, checker monitors — without perturbing the simulation itself:
the profiler only *observes* (it reads the host clock and bumps
counters), so an instrumented run schedules, delivers, and commits in
exactly the same order as an uninstrumented one. Digests, checksums,
and repro bundles are byte-identical with the profiler on or off.

Cost model:

- **Off (the default):** every instrumentation site guards on the
  module global ``ACTIVE`` being ``None`` — one module-attribute read
  per event on the hot paths. ``bench_harness_speed`` measures this
  off-mode tax against the event-loop dispatch rate and gates it at
  <= 2% of the wall time of one paper-topology run.
- **On:** each site pays two ``perf_counter()`` reads and a dict
  update. Sections are *inclusive* (a ``net.deliver`` that triggers a
  Raft handler which encodes binlog events is counted in all three),
  so component seconds do not sum to wall time; ``loop.dispatch`` is
  the closest thing to a total.

Usage::

    from repro import profile
    profile.enable()
    ... run the workload ...
    print(profile.format_report())
    report = profile.profile()     # {component: {"calls", "seconds"}}
    profile.disable()
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "ACTIVE",
    "Profiler",
    "enable",
    "disable",
    "active",
    "profile",
    "format_report",
    "span",
]


class Profiler:
    """Accumulates (calls, seconds) per component name.

    ``account``/``count`` are the only methods instrumentation sites
    call; both are safe to call from any subsystem (no locks needed —
    the simulator is single-threaded by construction, and worker
    *processes* each carry their own module globals).
    """

    __slots__ = ("seconds", "calls", "started_at")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.started_at = perf_counter()

    def account(self, component: str, elapsed: float, n: int = 1) -> None:
        """Attribute ``elapsed`` wall seconds (and ``n`` calls)."""
        self.seconds[component] = self.seconds.get(component, 0.0) + elapsed
        self.calls[component] = self.calls.get(component, 0) + n

    def count(self, component: str, n: int = 1) -> None:
        """Bump a component's call counter without timing it."""
        self.calls[component] = self.calls.get(component, 0) + n

    def report(self) -> dict[str, dict[str, Any]]:
        """``{component: {"calls": int, "seconds": float}}`` sorted by
        descending seconds (count-only components trail, by calls)."""
        components = sorted(
            set(self.calls) | set(self.seconds),
            key=lambda c: (-self.seconds.get(c, 0.0), -self.calls.get(c, 0), c),
        )
        return {
            c: {
                "calls": self.calls.get(c, 0),
                "seconds": round(self.seconds.get(c, 0.0), 6),
            }
            for c in components
        }

    def format_report(self) -> str:
        """Human-readable table: component, calls, seconds, us/call."""
        wall = perf_counter() - self.started_at
        lines = [f"profile ({wall:.2f}s wall since enable):"]
        lines.append(f"  {'component':<24} {'calls':>10} {'seconds':>9} {'us/call':>9}")
        for component, row in self.report().items():
            calls, seconds = row["calls"], row["seconds"]
            per_call = (seconds / calls * 1e6) if calls else 0.0
            lines.append(
                f"  {component:<24} {calls:>10} {seconds:>9.3f} {per_call:>9.1f}"
            )
        return "\n".join(lines)


# The one observed-by-everyone switch. Hot paths read this module
# attribute and skip all profiling work when it is None.
ACTIVE: Profiler | None = None


def enable() -> Profiler:
    """Turn profiling on (resetting any previous accumulation)."""
    global ACTIVE
    ACTIVE = Profiler()
    return ACTIVE


def disable() -> Profiler | None:
    """Turn profiling off; returns the final profiler (or None)."""
    global ACTIVE
    final, ACTIVE = ACTIVE, None
    return final


def active() -> Profiler | None:
    return ACTIVE


def profile() -> dict[str, dict[str, Any]]:
    """The current report (empty when profiling is off) — the
    counterpart to ``RaftNode.stats()`` for harness-side cost."""
    return ACTIVE.report() if ACTIVE is not None else {}


def format_report() -> str:
    return ACTIVE.format_report() if ACTIVE is not None else "profile: off"


@contextmanager
def span(component: str) -> Iterator[None]:
    """Coarse-grained section timing for non-hot-path call sites
    (experiment phases, checker passes). Free when profiling is off."""
    prof = ACTIVE
    if prof is None:
        yield
        return
    started = perf_counter()
    try:
        yield
    finally:
        prof.account(component, perf_counter() - started)

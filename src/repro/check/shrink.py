"""Delta-debugging (ddmin) of fault schedules.

A violating run found by the explorer usually carries many faults that
have nothing to do with the violation. :func:`shrink_schedule` re-runs
the scenario at the same seed with scripted *subsets* of the recorded
fault events and keeps the classic ddmin loop going until the schedule
is 1-minimal: removing any single remaining chunk makes the violation
disappear. Because the simulator is deterministic in (scenario, seed,
schedule), every probe is exact — no flakiness, no retries. The first
probe is the empty schedule: a violation that needs no fault at all
shrinks to ``[]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.check.scenarios import Scenario
from repro.workload.faults import FaultEvent


def ddmin(
    items: list,
    still_fails: Callable[[list], bool],
    on_probe: Callable[[list, bool], None] | None = None,
) -> list:
    """Zeller's ddmin: minimize ``items`` while ``still_fails`` holds.
    ``still_fails(items)`` must be True on entry. The empty list is
    probed first."""
    if items:
        fails = still_fails([])
        if on_probe is not None:
            on_probe([], fails)
        if fails:
            return []
    granularity = 2
    while len(items) >= 2:
        chunk_size = max(1, len(items) // granularity)
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        reduced = False
        for drop in range(len(chunks)):
            candidate = [
                item
                for index, chunk in enumerate(chunks)
                if index != drop
                for item in chunk
            ]
            fails = still_fails(candidate)
            if on_probe is not None:
                on_probe(candidate, fails)
            if fails:
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


@dataclass
class ShrinkResult:
    """Outcome of minimizing one failing run."""

    original: list = field(default_factory=list)  # FaultEvent
    minimal: list = field(default_factory=list)  # FaultEvent
    probes: int = 0
    # The scripted replay of the original schedule fails (else nothing
    # was shrunk and ``minimal`` is the original).
    reproduced: bool = False

    @property
    def removed(self) -> int:
        return len(self.original) - len(self.minimal)

    @property
    def needs_no_fault(self) -> bool:
        """The run fails with no fault injected at all."""
        return self.reproduced and not self.minimal

    def minimal_wire(self) -> list:
        return [e.to_wire() for e in self.minimal]


def shrink_schedule(
    scenario: Scenario,
    seed: int,
    events: list[FaultEvent],
    mutation: str | None = None,
    log=None,
) -> ShrinkResult:
    """Minimize ``events`` so the (scenario, seed) run still violates.

    Returns the original list unchanged (``minimal == original``) if the
    scripted replay of the full schedule does not fail — a scripted
    replay can diverge from a reactive injector run when the injector's
    targeting depended on cluster state the script doesn't recreate.
    """
    from repro.check.explorer import run_once  # circular at import time

    result = ShrinkResult(original=list(events), minimal=list(events))

    def still_fails(subset: list[FaultEvent]) -> bool:
        result.probes += 1
        outcome = run_once(scenario, seed, schedule=subset, mutation=mutation)
        return not outcome.ok

    if not still_fails(list(events)):
        if log is not None:
            log("shrink: scripted replay of the full schedule passes; keeping original")
        return result
    result.reproduced = True

    def on_probe(subset, fails):
        if log is not None:
            log(f"shrink probe {result.probes}: {len(subset)} events -> "
                f"{'still fails' if fails else 'passes'}")

    result.minimal = ddmin(list(events), still_fails, on_probe)
    return result

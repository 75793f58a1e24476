"""Simulated-time event loop.

The loop is a priority queue of ``(fire_at, seq, timer)`` tuples. The
sequence number makes ordering total and deterministic: two events
scheduled for the same instant fire in the order they were scheduled.
``seq`` is unique, so a heap comparison is decided by the first two
tuple fields — in C, never reaching the timer object.

Time is a ``float`` in seconds. Nothing here sleeps on the wall clock; a
multi-minute failover drill runs in milliseconds of real time.

Cancellation is lazy (O(1)): a cancelled entry stays in the heap and is
skipped when popped. Cancellation-heavy workloads (every heartbeat arms
an election timer that is almost always cancelled) used to pin dead
entries until their fire time; the loop now *compacts* the heap when the
cancelled fraction crosses a threshold. Compaction only removes entries
whose callbacks can never run and re-heapifies the survivors — pop order
is the total order ``(fire_at, seq)`` either way, so the schedule is
bit-for-bit unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimError

# Compact when the heap holds at least COMPACT_MIN_SIZE entries and at
# least COMPACT_FRACTION of them are cancelled. The floor keeps tiny
# unit-test heaps on the zero-bookkeeping path; the fraction bounds
# wasted memory/pop work at a constant factor.
COMPACT_MIN_SIZE = 256
COMPACT_FRACTION = 0.5


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays put and is skipped when
    popped. This keeps ``cancel()`` O(1); the owning loop compacts the
    heap when too many dead entries accumulate.
    """

    __slots__ = ("fire_at", "seq", "_callback", "_args", "cancelled", "_loop", "_in_heap")

    def __init__(
        self,
        fire_at: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        loop: "EventLoop | None" = None,
    ):
        self.fire_at = fire_at
        self.seq = seq
        self._callback = callback
        self._args = args
        self.cancelled = False
        self._loop = loop
        # Only the loop makes timers, and it pushes each one as it makes it.
        self._in_heap = True

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled timers don't pin large closures.
        self._callback = _noop
        self._args = ()
        if self._in_heap and self._loop is not None:
            self._loop._note_cancelled()

    def _fire(self) -> None:
        callback, args = self._callback, self._args
        # A fired timer may outlive its firing in a caller's list of
        # handles; like a cancelled one, it must not pin what it ran.
        self._callback = _noop
        self._args = ()
        callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(fire_at={self.fire_at:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class EventLoop:
    """Deterministic discrete-event loop with a simulated clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Timer]] = []
        self._processed = 0
        # Cancelled-but-still-heaped entry count; drives compaction.
        self._cancelled_in_heap = 0
        self._compactions = 0
        # Per-instance thresholds so stress tests can tighten them.
        self.compact_min_size = COMPACT_MIN_SIZE
        self.compact_fraction = COMPACT_FRACTION

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (useful for budget assertions)."""
        return self._processed

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimError(f"cannot schedule in the past: {when} < {self._now}")
        self._seq = seq = self._seq + 1
        timer = Timer(when, seq, callback, args, self)
        heappush(self._heap, (when, seq, timer))
        return timer

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        when = self._now + delay
        self._seq = seq = self._seq + 1
        timer = Timer(when, seq, callback, args, self)
        heappush(self._heap, (when, seq, timer))
        return timer

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at the current instant (after events
        already queued for this instant)."""
        now = self._now
        self._seq = seq = self._seq + 1
        timer = Timer(now, seq, callback, args, self)
        heappush(self._heap, (now, seq, timer))
        return timer

    # -- cancellation bookkeeping -------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        size = len(self._heap)
        if size >= self.compact_min_size and self._cancelled_in_heap >= size * self.compact_fraction:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Safe at any point: cancelled callbacks can never fire, and the
        surviving entries' pop order is the same total order
        ``(fire_at, seq)`` the lazy heap would have produced.
        """
        heap = self._heap
        live = []
        for entry in heap:
            timer = entry[2]
            if timer.cancelled:
                timer._in_heap = False
            else:
                live.append(entry)
        # In place: run_until holds the list across the callback that
        # triggered this compaction.
        heap[:] = live
        heapify(heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def step(self) -> bool:
        """Fire the single next event, if any. Returns True if one fired."""
        heap = self._heap
        while heap:
            fire_at, _seq, timer = heappop(heap)
            timer._in_heap = False
            if timer.cancelled:
                self._cancelled_in_heap -= 1
                continue
            if fire_at > self._now:
                self._now = fire_at
            self._processed += 1
            timer._fire()
            return True
        return False

    def run_until(self, deadline: float, max_events: int | None = None) -> None:
        """Process every event with ``fire_at <= deadline``; advance the
        clock to ``deadline`` afterwards.

        ``max_events`` guards against runaway schedules (e.g. a bug that
        re-arms a zero-delay timer forever); exceeding it raises SimError.
        """
        heap = self._heap
        budget = -1 if max_events is None else max_events
        while heap:
            entry = heap[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(heap)
                timer._in_heap = False
                self._cancelled_in_heap -= 1
                continue
            fire_at = entry[0]
            if fire_at > deadline:
                break
            heappop(heap)
            timer._in_heap = False
            if fire_at > self._now:
                self._now = fire_at
            self._processed += 1
            timer._fire()
            if budget == 0:
                raise SimError(f"run_until exceeded max_events={max_events}")
            budget -= 1
        if deadline > self._now:
            self._now = deadline

    def run_for(self, duration: float, max_events: int | None = None) -> None:
        """Process events for ``duration`` seconds of simulated time."""
        self.run_until(self._now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until the event queue drains. Heartbeat-style periodic timers
        never drain, so this is mostly for small unit-test scenarios."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise SimError(f"run_until_idle exceeded max_events={max_events}")

    def pending_count(self) -> int:
        """Number of armed (non-cancelled) timers still queued — O(1) now
        that cancellations in the heap are counted as they happen."""
        return len(self._heap) - self._cancelled_in_heap

    def stats(self) -> dict[str, Any]:
        """Loop health for benches and regression tracking: heap shape,
        cancellation pressure, compaction work, and total dispatch count."""
        size = len(self._heap)
        return {
            "now": self._now,
            "events_processed": self._processed,
            "timers_scheduled": self._seq,
            "heap_size": size,
            "armed_timers": size - self._cancelled_in_heap,
            "cancelled_in_heap": self._cancelled_in_heap,
            "cancelled_fraction": (self._cancelled_in_heap / size) if size else 0.0,
            "compactions": self._compactions,
        }

"""Structured tracing for simulation runs.

A :class:`Tracer` collects ``TraceRecord`` entries (time, kind, fields).
Tests assert on traces, the model checker keeps their tail in its repro
bundles, and experiments use them to measure unavailability windows and
event timings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.sim.loop import EventLoop


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:.6f}] {self.kind}({inner})"


class Tracer:
    """Append-only trace sink with simple filtering.

    ``capacity`` bounds memory as a ring buffer: once full, each new
    record evicts the oldest one and bumps ``dropped``. Multi-hundred-seed
    explorer runs stay bounded while the retained tail — what repro
    bundles capture — is always the most recent window. Correctness tests
    use unbounded tracers (``capacity=None``).
    """

    def __init__(self, loop: EventLoop, capacity: int | None = None) -> None:
        self._loop = loop
        self._capacity = capacity
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def emit(self, kind: str, **fields: Any) -> TraceRecord:
        record = TraceRecord(time=self._loop.now, kind=kind, fields=fields)
        if self._capacity is not None and len(self.records) == self._capacity:
            self.dropped += 1  # deque evicts the oldest on append
        self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    def tail(self, count: int) -> list[TraceRecord]:
        """The most recent ``count`` retained records (oldest first)."""
        if count <= 0:
            return []
        return list(self.records)[-count:]

    def stats(self) -> dict[str, Any]:
        """Ring-buffer observability: retained/dropped counts for runs
        that must prove their memory stayed bounded."""
        return {
            "retained": len(self.records),
            "dropped": self.dropped,
            "capacity": self._capacity,
        }

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` synchronously on every future record."""
        self._subscribers.append(fn)

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def last(self, kind: str) -> TraceRecord | None:
        for record in reversed(self.records):
            if record.kind == kind:
                return record
        return None

    def between(self, start: float, end: float) -> Iterator[TraceRecord]:
        return (r for r in self.records if start <= r.time <= end)

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

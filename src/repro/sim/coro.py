"""Generator-based coroutines over the simulated event loop.

Protocol code (commit pipelines, orchestration, tooling) is written as
generators that yield *awaitables*:

- ``yield dt`` (a number) — suspend for ``dt`` simulated seconds. This is
  exactly one loop event: the timer resumes the generator itself;
- ``yield some_future`` — suspend until the :class:`SimFuture` resolves;
  the ``yield`` expression evaluates to the future's result, or re-raises
  the future's exception inside the generator. ``sleep(loop, dt)`` is
  the future form of a delay, for combinators such as :func:`any_of`.

``loop.call_soon`` is used to resume after a future, so a future resolved
at time *t* continues its waiters at time *t* but strictly after
already-queued events — the same happens-before order every run.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from repro.errors import SimError, SimTimeoutError
from repro.sim.loop import EventLoop, Timer

_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"
_CANCELLED = "cancelled"


class SimFuture:
    """A single-assignment result container bound to an event loop."""

    __slots__ = ("_loop", "_state", "_value", "_callbacks", "label")

    def __init__(self, loop: EventLoop, label: str = "") -> None:
        self._loop = loop
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []
        self.label = label

    @property
    def loop(self) -> EventLoop:
        return self._loop

    def done(self) -> bool:
        return self._state != _PENDING

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def failed(self) -> bool:
        return self._state in (_FAILED, _CANCELLED)

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully. Idempotence is an error: a
        double-resolve indicates a protocol bug, so it raises."""
        if self._state != _PENDING:
            raise SimError(f"future {self.label!r} already {self._state}")
        self._state = _RESOLVED
        self._value = value
        self._schedule_callbacks()

    def fail(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise SimError(f"future {self.label!r} already {self._state}")
        self._state = _FAILED
        self._value = exc
        self._schedule_callbacks()

    def cancel(self) -> None:
        """Cancel; waiters see a :class:`SimError`. No-op if already done."""
        if self._state != _PENDING:
            return
        self._state = _CANCELLED
        self._value = SimError(f"future {self.label!r} cancelled")
        self._schedule_callbacks()

    def resolve_if_pending(self, value: Any = None) -> bool:
        """Resolve unless already done; returns whether it resolved now."""
        if self._state is not _PENDING:
            return False
        self._state = _RESOLVED
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            call_soon = self._loop.call_soon
            for fn in callbacks:
                call_soon(fn, self)
        return True

    def fail_if_pending(self, exc: BaseException) -> bool:
        if self._state != _PENDING:
            return False
        self.fail(exc)
        return True

    def result(self) -> Any:
        """Return the result, re-raising on failure. Raises if pending."""
        if self._state == _PENDING:
            raise SimError(f"future {self.label!r} is still pending")
        if self._state in (_FAILED, _CANCELLED):
            raise self._value
        return self._value

    def exception(self) -> BaseException | None:
        if self._state in (_FAILED, _CANCELLED):
            return self._value
        return None

    def add_done_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        """Run ``fn(self)`` when the future completes (immediately via
        ``call_soon`` if already complete)."""
        if self._state != _PENDING:
            self._loop.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._loop.call_soon(fn, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimFuture({self.label!r}, {self._state})"


def sleep(loop: EventLoop, delay: float) -> SimFuture:
    """A future that resolves after ``delay`` simulated seconds."""
    future = SimFuture(loop, label=f"sleep({delay})")
    loop.call_after(delay, future.resolve, None)
    return future


def all_of(loop: EventLoop, futures: Iterable[SimFuture]) -> SimFuture:
    """Resolve with a list of results once every input resolves.

    Fails fast: the first input failure fails the aggregate (remaining
    results are discarded).
    """
    futures = list(futures)
    aggregate = SimFuture(loop, label=f"all_of[{len(futures)}]")
    if not futures:
        aggregate.resolve([])
        return aggregate
    remaining = [len(futures)]

    def on_done(_completed: SimFuture) -> None:
        if aggregate.done():
            return
        exc = _completed.exception()
        if exc is not None:
            aggregate.fail_if_pending(exc)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            aggregate.resolve([f.result() for f in futures])

    for f in futures:
        f.add_done_callback(on_done)
    return aggregate


def any_of(loop: EventLoop, futures: Iterable[SimFuture]) -> SimFuture:
    """Resolve with ``(index, result)`` of the first input to resolve.

    Fails only if *all* inputs fail (with the last failure).
    """
    futures = list(futures)
    if not futures:
        raise SimError("any_of requires at least one future")
    aggregate = SimFuture(loop, label=f"any_of[{len(futures)}]")
    failures = [0]

    def make_callback(index: int) -> Callable[[SimFuture], None]:
        def on_done(completed: SimFuture) -> None:
            if aggregate.done():
                return
            exc = completed.exception()
            if exc is None:
                aggregate.resolve_if_pending((index, completed.result()))
            else:
                failures[0] += 1
                if failures[0] == len(futures):
                    aggregate.fail_if_pending(exc)

        return on_done

    for i, f in enumerate(futures):
        f.add_done_callback(make_callback(i))
    return aggregate


def with_timeout(loop: EventLoop, future: SimFuture, timeout: float) -> SimFuture:
    """Wrap ``future`` with a deadline; fails with SimTimeoutError on expiry.

    The underlying future is left untouched on timeout (it may resolve
    later; its result is then ignored by this wrapper).
    """
    wrapped = SimFuture(loop, label=f"timeout({future.label}, {timeout})")
    timer = loop.call_after(
        timeout,
        lambda: wrapped.fail_if_pending(
            SimTimeoutError(f"timed out after {timeout}s waiting for {future.label!r}")
        ),
    )

    def on_done(completed: SimFuture) -> None:
        timer.cancel()
        exc = completed.exception()
        if exc is None:
            wrapped.resolve_if_pending(completed.result())
        else:
            wrapped.fail_if_pending(exc)

    future.add_done_callback(on_done)
    return wrapped


class Process(SimFuture):
    """A running coroutine. Also a future for its return value.

    The generator may yield:
      - a :class:`SimFuture` (including another Process): suspends until it
        completes; ``yield`` evaluates to its result or raises its error;
      - a number: suspends for that many simulated seconds; the timer
        calls ``_advance`` directly (one loop event, no future).

    ``host`` (optional) binds the process to that host's incarnation at
    spawn, checked inline before each resume: if the host crashed or
    restarted since, the process is killed silently — this is how host
    crashes stop in-flight pipelines without unwinding through every
    frame; if the host is paused, the resume is deferred until its pause
    barrier completes (then re-checked), which freezes the coroutine
    mid-flight without killing it.
    """

    __slots__ = ("_gen", "_host", "_incarnation", "_sleep_timer")

    def __init__(
        self,
        loop: EventLoop,
        gen: Generator[Any, Any, Any],
        label: str = "",
        host: Any = None,
    ) -> None:
        super().__init__(loop, label=label or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._host = host
        self._incarnation = host.incarnation if host is not None else 0
        self._sleep_timer: Timer | None = None
        loop.call_soon(self._advance, None, None)

    def kill(self) -> None:
        """Terminate the coroutine without resolving normally. Waiters see
        a SimError (via cancellation)."""
        if self._state is not _PENDING:
            return
        if self._sleep_timer is not None:
            self._sleep_timer.cancel()
            self._sleep_timer = None
        self._gen.close()
        self.cancel()

    def _advance(self, value: Any, exc: BaseException | None) -> None:
        if self._state is not _PENDING:
            return
        self._sleep_timer = None
        host = self._host
        if host is not None:
            if not host.alive or host.incarnation != self._incarnation:
                self.kill()
                return
            barrier = host.pause_barrier
            if barrier is not None:
                barrier.add_done_callback(lambda _b: self._advance(value, exc))
                return
        try:
            if exc is None:
                yielded = self._gen.send(value)
            else:
                yielded = self._gen.throw(exc)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except Exception as err:  # noqa: BLE001 - propagate to waiters
            self.fail(err)
            return
        if isinstance(yielded, SimFuture):
            if yielded._state is _PENDING:
                yielded._callbacks.append(self._on_waited)
            else:
                self._loop.call_soon(self._on_waited, yielded)
        elif isinstance(yielded, (int, float)):
            # The host is re-checked when the timer resumes, so a crashed
            # or paused host stops or defers the resume as for a future.
            self._sleep_timer = self._loop.call_after(yielded, self._advance, None, None)
        else:
            self._gen.close()
            self.fail(SimError(f"process {self.label!r} yielded {type(yielded).__name__}"))

    def _on_waited(self, completed: SimFuture) -> None:
        if completed._state is _RESOLVED:
            self._advance(completed._value, None)
        else:
            self._advance(None, completed._value)


def spawn(loop: EventLoop, gen: Generator[Any, Any, Any], label: str = "") -> Process:
    """Start ``gen`` as a coroutine on ``loop``, bound to no host."""
    return Process(loop, gen, label=label)

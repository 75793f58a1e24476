"""Unit tests for the event loop: ordering, cancellation, determinism."""

import pytest

from repro.errors import SimError
from repro.sim.loop import EventLoop


def test_clock_starts_at_zero():
    loop = EventLoop()
    assert loop.now == 0.0


def test_call_after_fires_at_right_time():
    loop = EventLoop()
    seen = []
    loop.call_after(1.5, lambda: seen.append(loop.now))
    loop.run_until(2.0)
    assert seen == [1.5]
    assert loop.now == 2.0


def test_events_fire_in_time_order():
    loop = EventLoop()
    seen = []
    loop.call_after(3.0, seen.append, "c")
    loop.call_after(1.0, seen.append, "a")
    loop.call_after(2.0, seen.append, "b")
    loop.run_until(10.0)
    assert seen == ["a", "b", "c"]


def test_same_instant_fires_in_scheduling_order():
    loop = EventLoop()
    seen = []
    for label in "abcde":
        loop.call_after(1.0, seen.append, label)
    loop.run_until(1.0)
    assert seen == list("abcde")


def test_call_soon_runs_after_already_queued_same_instant_events():
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, seen.append, "first")

    def at_one():
        loop.call_soon(seen.append, "soon")

    loop.call_at(1.0, at_one)
    loop.call_at(1.0, seen.append, "second")
    loop.run_until(1.0)
    assert seen == ["first", "second", "soon"]


def test_cancelled_timer_does_not_fire():
    loop = EventLoop()
    seen = []
    timer = loop.call_after(1.0, seen.append, "x")
    timer.cancel()
    loop.run_until(5.0)
    assert seen == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    timer = loop.call_after(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    loop.run_until(2.0)


def test_scheduling_in_past_raises():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(SimError):
        loop.call_at(1.0, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimError):
        loop.call_after(-0.1, lambda: None)


def test_nested_scheduling_during_callback():
    loop = EventLoop()
    seen = []

    def outer():
        seen.append(("outer", loop.now))
        loop.call_after(1.0, inner)

    def inner():
        seen.append(("inner", loop.now))

    loop.call_after(1.0, outer)
    loop.run_until(5.0)
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_run_until_does_not_fire_future_events():
    loop = EventLoop()
    seen = []
    loop.call_after(1.0, seen.append, "early")
    loop.call_after(3.0, seen.append, "late")
    loop.run_until(2.0)
    assert seen == ["early"]
    loop.run_until(3.0)
    assert seen == ["early", "late"]


def test_run_for_advances_relative():
    loop = EventLoop()
    loop.run_for(2.5)
    loop.run_for(2.5)
    assert loop.now == 5.0


def test_run_until_max_events_guard():
    loop = EventLoop()

    def rearm():
        loop.call_soon(rearm)

    loop.call_soon(rearm)
    with pytest.raises(SimError):
        loop.run_until(1.0, max_events=100)
    assert loop.events_processed == 101  # raised on the event past the budget
    for max_events in (0, 1, 5):
        loop = EventLoop()
        for i in range(10):
            loop.call_at(i * 0.1, lambda: None)
        with pytest.raises(SimError):
            loop.run_until(2.0, max_events=max_events)
        assert loop.events_processed == max_events + 1
    loop = EventLoop()
    for i in range(5):
        loop.call_at(i * 0.1, lambda: None)
    loop.run_until(2.0, max_events=5)  # exactly the budget: no raise
    assert loop.events_processed == 5 and loop.now == 2.0


def test_step_returns_false_when_empty():
    loop = EventLoop()
    assert loop.step() is False


def test_pending_count_excludes_cancelled():
    loop = EventLoop()
    loop.call_after(1.0, lambda: None)
    timer = loop.call_after(2.0, lambda: None)
    timer.cancel()
    assert loop.pending_count() == 1


def test_run_until_idle_drains_queue():
    loop = EventLoop()
    seen = []
    loop.call_after(1.0, lambda: loop.call_after(1.0, seen.append, "done"))
    loop.run_until_idle()
    assert seen == ["done"]
    assert loop.now == 2.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_schedule_fires_in_fire_at_then_seq_order(seed):
    """A seeded mix of call_at / call_soon / cancel, scheduled up front
    and from inside callbacks, with many equal-``fire_at`` ties and heap
    compactions while timers are pending: every surviving timer fires
    exactly once, in exactly ``(fire_at, seq)`` order."""
    import random

    rng = random.Random(seed)
    loop = EventLoop()
    loop.compact_min_size = 16
    instants = [0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0, 2.0]  # ties on purpose
    handles = []
    fired = []
    compactions_seen_mid_run = set()

    def schedule(depth):
        when = max(loop.now, rng.choice(instants))
        own = []  # the callback reports its own handle's (fire_at, seq)
        if rng.random() < 0.3:
            handle = loop.call_soon(on_fire, own, depth)
        else:
            handle = loop.call_at(when, on_fire, own, depth)
        own.append(handle)
        handles.append(handle)

    def on_fire(own, depth):
        fired.append((own[0].fire_at, own[0].seq))
        compactions_seen_mid_run.add(loop._compactions)
        if depth < 3:
            for _ in range(rng.randrange(3)):
                schedule(depth + 1)
        for _ in range(rng.randrange(5)):
            rng.choice(handles).cancel()  # fired, cancelled or pending: all legal

    for _ in range(400):
        schedule(0)
    for handle in rng.sample(handles, 150):  # below the compaction fraction
        handle.cancel()
    assert loop._compactions == 0
    loop.run_until(10.0)

    assert len(compactions_seen_mid_run) > 1, "no compaction happened mid-run"
    assert fired == sorted(fired)
    assert len(set(fired)) == len(fired)
    survivors = {(h.fire_at, h.seq) for h in handles if not h.cancelled}
    assert survivors <= set(fired)  # a timer cancelled after it fired is in `fired` only
    assert loop.pending_count() == 0
    assert loop.events_processed == len(fired)

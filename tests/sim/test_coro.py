"""Unit tests for coroutine processes and futures."""

import pytest

from repro.errors import SimError, SimTimeoutError
from repro.sim.coro import Process, SimFuture, all_of, any_of, sleep, spawn, with_timeout
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import FixedLatency, Network, NetworkSpec
from repro.sim.rng import RngStream


@pytest.fixture
def loop():
    return EventLoop()


def _host(loop, name):
    network = Network(loop, RngStream(1), spec=NetworkSpec(in_region=FixedLatency(0.001)))
    host = Host(loop, network, name, "r1")
    host.attach_service(object())
    return host


class TestSimFuture:
    def test_resolve_and_result(self, loop):
        fut = SimFuture(loop)
        fut.resolve(42)
        assert fut.done()
        assert fut.result() == 42

    def test_result_before_done_raises(self, loop):
        fut = SimFuture(loop)
        with pytest.raises(SimError):
            fut.result()

    def test_double_resolve_raises(self, loop):
        fut = SimFuture(loop)
        fut.resolve(1)
        with pytest.raises(SimError):
            fut.resolve(2)

    def test_resolve_if_pending(self, loop):
        fut = SimFuture(loop)
        assert fut.resolve_if_pending(1) is True
        assert fut.resolve_if_pending(2) is False
        assert fut.result() == 1

    def test_fail_propagates_exception(self, loop):
        fut = SimFuture(loop)
        fut.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            fut.result()

    def test_callbacks_run_via_loop(self, loop):
        fut = SimFuture(loop)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.resolve("x")
        assert seen == []  # not synchronous
        loop.run_until(0.0)
        assert seen == ["x"]

    def test_callback_on_already_done_future(self, loop):
        fut = SimFuture(loop)
        fut.resolve(7)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        loop.run_until(0.0)
        assert seen == [7]

    def test_cancel_fails_waiters(self, loop):
        fut = SimFuture(loop)
        fut.cancel()
        assert fut.cancelled()
        with pytest.raises(SimError):
            fut.result()


class TestProcess:
    def test_simple_return_value(self, loop):
        def routine():
            yield sleep(loop, 1.0)
            return "done"

        proc = spawn(loop, routine())
        loop.run_until(2.0)
        assert proc.result() == "done"

    def test_numeric_yield_sleeps(self, loop):
        times = []

        def routine():
            times.append(loop.now)
            yield 0.5
            times.append(loop.now)
            yield 0.25
            times.append(loop.now)

        spawn(loop, routine())
        loop.run_until(2.0)
        assert times == [0.0, 0.5, 0.75]

    def test_yield_future_receives_result(self, loop):
        fut = SimFuture(loop)
        results = []

        def routine():
            value = yield fut
            results.append(value)

        spawn(loop, routine())
        loop.call_after(1.0, fut.resolve, "payload")
        loop.run_until(2.0)
        assert results == ["payload"]

    def test_yield_failed_future_raises_inside(self, loop):
        fut = SimFuture(loop)

        def routine():
            try:
                yield fut
            except ValueError:
                return "caught"

        proc = spawn(loop, routine())
        loop.call_after(1.0, fut.fail, ValueError("kaput"))
        loop.run_until(2.0)
        assert proc.result() == "caught"

    def test_uncaught_exception_fails_process(self, loop):
        def routine():
            yield 0.1
            raise RuntimeError("oops")

        proc = spawn(loop, routine())
        loop.run_until(1.0)
        with pytest.raises(RuntimeError):
            proc.result()

    def test_process_awaits_process(self, loop):
        def inner():
            yield 1.0
            return 5

        def outer():
            value = yield spawn(loop, inner())
            return value * 2

        proc = spawn(loop, outer())
        loop.run_until(3.0)
        assert proc.result() == 10

    def test_kill_stops_execution(self, loop):
        progress = []

        def routine():
            progress.append("start")
            yield 1.0
            progress.append("end")

        proc = spawn(loop, routine())
        loop.run_until(0.5)
        proc.kill()
        loop.run_until(5.0)
        assert progress == ["start"]
        assert proc.cancelled()

    def test_liveness_false_kills_on_resume(self, loop):
        # Bound to a host's incarnation: a crash, or a crash and restart,
        # before the resume kills it silently (built directly, so the
        # host's crash() does not kill it first — the resume's own check does).
        for restart in (False, True):
            host = _host(loop, f"h{int(restart)}")
            progress = []

            def routine():
                progress.append("a")
                yield 1.0
                progress.append("b")

            proc = Process(loop, routine(), host=host)
            loop.run_until(loop.now + 0.5)
            host.crash()
            if restart:
                host.restart()
            loop.run_until(loop.now + 5.0)
            assert progress == ["a"]
            assert proc.cancelled()

    def test_numeric_yield_is_one_loop_event(self, loop):
        def routine():
            yield 0.5
            yield 0.25

        proc = spawn(loop, routine())
        loop.run_until(0.0)  # the start event
        before = loop.events_processed
        loop.run_until(2.0)
        assert proc.done()
        assert loop.events_processed - before == 2  # one per sleep

    def test_kill_during_sleep_leaves_no_live_callback(self, loop):
        sends = []

        def routine():
            sends.append("start")
            yield 1.0
            sends.append("resumed")

        proc = spawn(loop, routine())
        loop.run_until(0.5)
        assert loop.pending_count() == 1  # the sleep's timer
        proc.kill()
        assert loop.pending_count() == 0  # cancelled, not left to fire
        before = loop.events_processed
        loop.run_until(5.0)
        assert loop.events_processed == before
        assert sends == ["start"]

    def test_gate_defers_a_sleep_resume_until_the_barrier_resolves(self, loop):
        host = _host(loop, "h1")
        times = []

        def routine():
            yield 1.0
            times.append(loop.now)

        host.spawn(routine())
        loop.run_until(0.5)  # started and asleep before the host pauses
        host.pause()
        loop.run_until(3.0)
        assert times == []  # slept until 1.0, then held by the pause barrier
        loop.call_at(4.0, host.resume)
        loop.run_until(10.0)
        assert times == [4.0]

    def test_yielding_garbage_fails(self, loop):
        def routine():
            yield "not awaitable"

        proc = spawn(loop, routine())
        loop.run_until(1.0)
        with pytest.raises(SimError):
            proc.result()


class TestCombinators:
    def test_all_of_collects_results(self, loop):
        futs = [SimFuture(loop) for _ in range(3)]
        agg = all_of(loop, futs)
        for i, fut in enumerate(futs):
            loop.call_after(i + 1.0, fut.resolve, i * 10)
        loop.run_until(5.0)
        assert agg.result() == [0, 10, 20]

    def test_all_of_empty(self, loop):
        agg = all_of(loop, [])
        assert agg.result() == []

    def test_all_of_fails_fast(self, loop):
        futs = [SimFuture(loop) for _ in range(2)]
        agg = all_of(loop, futs)
        loop.call_after(1.0, futs[0].fail, ValueError("x"))
        loop.run_until(2.0)
        with pytest.raises(ValueError):
            agg.result()

    def test_any_of_returns_first(self, loop):
        futs = [SimFuture(loop) for _ in range(3)]
        agg = any_of(loop, futs)
        loop.call_after(2.0, futs[0].resolve, "slow")
        loop.call_after(1.0, futs[2].resolve, "fast")
        loop.run_until(5.0)
        assert agg.result() == (2, "fast")

    def test_any_of_all_failures(self, loop):
        futs = [SimFuture(loop) for _ in range(2)]
        agg = any_of(loop, futs)
        loop.call_after(1.0, futs[0].fail, ValueError("a"))
        loop.call_after(2.0, futs[1].fail, ValueError("b"))
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            agg.result()

    def test_with_timeout_expires(self, loop):
        fut = SimFuture(loop)
        wrapped = with_timeout(loop, fut, 1.0)
        loop.run_until(2.0)
        with pytest.raises(SimTimeoutError):
            wrapped.result()

    def test_with_timeout_resolves_in_time(self, loop):
        fut = SimFuture(loop)
        wrapped = with_timeout(loop, fut, 2.0)
        loop.call_after(1.0, fut.resolve, "ok")
        loop.run_until(5.0)
        assert wrapped.result() == "ok"

    def test_with_timeout_late_resolution_is_ignored(self, loop):
        fut = SimFuture(loop)
        wrapped = with_timeout(loop, fut, 1.0)
        loop.call_after(3.0, fut.resolve, "late")
        loop.run_until(5.0)
        with pytest.raises(SimTimeoutError):
            wrapped.result()
        assert fut.result() == "late"

"""Tests for the network fabric and crash/restartable hosts."""

import gc
import weakref

import pytest

from repro.errors import HostDownError
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import FixedLatency, Network, NetworkSpec
from repro.sim.rng import RngStream
from repro.sim.tracing import Tracer


class Recorder:
    """Minimal service that records delivered messages."""

    def __init__(self):
        self.received = []
        self.crashes = 0
        self.restarts = 0

    def handle_message(self, src, message):
        self.received.append((src, message))

    def on_crash(self):
        self.crashes += 1

    def on_restart(self):
        self.restarts += 1


class SizedMessage:
    def __init__(self, size):
        self.wire_size = size


@pytest.fixture
def world():
    loop = EventLoop()
    spec = NetworkSpec(
        in_region=FixedLatency(0.001),
        cross_region=FixedLatency(0.030),
    )
    net = Network(loop, RngStream(1), spec=spec, tracer=Tracer(loop))
    return loop, net


def make_host(loop, net, name, region="r1"):
    host = Host(loop, net, name, region)
    service = Recorder()
    host.attach_service(service)
    return host, service


class TestDelivery:
    def test_in_region_latency(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        _, svc_b = make_host(loop, net, "b")
        a.send("b", "hello")
        loop.run_until(0.0005)
        assert svc_b.received == []
        loop.run_until(0.0015)
        assert svc_b.received == [("a", "hello")]

    def test_cross_region_latency(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a", region="r1")
        _, svc_b = make_host(loop, net, "b", region="r2")
        a.send("b", "hi")
        loop.run_until(0.010)
        assert svc_b.received == []
        loop.run_until(0.031)
        assert svc_b.received == [("a", "hi")]

    def test_send_to_unknown_host_drops(self, world):
        loop, net = world
        make_host(loop, net, "a")
        net.host("a").send("ghost", "msg")
        loop.run_until(1.0)
        assert net.total_drops == 1

    def test_region_pair_override(self):
        loop = EventLoop()
        spec = NetworkSpec(
            in_region=FixedLatency(0.001),
            cross_region=FixedLatency(0.050),
            region_pairs={("r1", "r2"): FixedLatency(0.010)},
        )
        net = Network(loop, RngStream(1), spec=spec)
        a, _ = make_host(loop, net, "a", region="r1")
        _, svc_b = make_host(loop, net, "b", region="r2")
        a.send("b", "x")
        loop.run_until(0.011)
        assert svc_b.received  # used the 10ms override, not 50ms


class TestPartitions:
    def test_isolated_host_unreachable(self, world):
        loop, net = world
        a, svc_a = make_host(loop, net, "a")
        b, svc_b = make_host(loop, net, "b")
        net.isolate("b")
        a.send("b", "x")
        b.send("a", "y")
        loop.run_until(1.0)
        assert svc_b.received == []
        assert svc_a.received == []
        net.heal("b")
        a.send("b", "x2")
        loop.run_until(2.0)
        assert svc_b.received == [("a", "x2")]

    def test_region_partition_blocks_both_ways(self, world):
        loop, net = world
        a, svc_a = make_host(loop, net, "a", region="r1")
        b, svc_b = make_host(loop, net, "b", region="r2")
        net.partition_regions("r1", "r2")
        a.send("b", "x")
        b.send("a", "y")
        loop.run_until(1.0)
        assert svc_a.received == [] and svc_b.received == []
        net.heal_regions("r1", "r2")
        a.send("b", "x2")
        loop.run_until(2.0)
        assert svc_b.received == [("a", "x2")]

    def test_isolate_region_cuts_all_others(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a", region="r1")
        _, svc_b = make_host(loop, net, "b", region="r2")
        _, svc_c = make_host(loop, net, "c", region="r3")
        net.isolate_region("r1")
        a.send("b", "x")
        a.send("c", "y")
        loop.run_until(1.0)
        assert svc_b.received == [] and svc_c.received == []
        net.heal_region("r1")
        a.send("b", "x2")
        loop.run_until(2.0)
        assert svc_b.received == [("a", "x2")]

    def test_partition_mid_flight_drops_on_arrival(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a", region="r1")
        _, svc_b = make_host(loop, net, "b", region="r2")
        a.send("b", "x")  # in flight for 30ms
        loop.run_until(0.010)
        net.partition_regions("r1", "r2")
        loop.run_until(1.0)
        assert svc_b.received == []


class TestAccounting:
    def test_bytes_by_region_pair(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a", region="r1")
        make_host(loop, net, "b", region="r2")
        make_host(loop, net, "c", region="r1")
        a.send("b", SizedMessage(1000))
        a.send("c", SizedMessage(500))
        loop.run_until(1.0)
        assert net.bytes_between_regions("r1", "r2") == 1000
        assert net.cross_region_bytes() == 1000
        assert net.in_region_bytes() == 500
        assert net.total_bytes() == 1500
        assert net.link_bytes("a", "b") == 1000

    def test_reset_accounting(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        make_host(loop, net, "b")
        a.send("b", SizedMessage(100))
        loop.run_until(1.0)
        net.reset_accounting()
        assert net.total_bytes() == 0

    def test_loss_probability(self):
        loop = EventLoop()
        spec = NetworkSpec(in_region=FixedLatency(0.001), loss_probability=1.0)
        net = Network(loop, RngStream(1), spec=spec)
        a, _ = make_host(loop, net, "a")
        _, svc_b = make_host(loop, net, "b")
        a.send("b", "x")
        loop.run_until(1.0)
        assert svc_b.received == []
        assert net.total_drops == 1


class TestHostLifecycle:
    def test_crash_makes_host_unreachable(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        b, svc_b = make_host(loop, net, "b")
        b.crash()
        a.send("b", "x")
        loop.run_until(1.0)
        assert svc_b.received == []
        assert svc_b.crashes == 1

    def test_send_from_dead_host_raises(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        make_host(loop, net, "b")
        a.crash()
        with pytest.raises(HostDownError):
            a.send("b", "x")

    def test_crash_cancels_timers(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        fired = []
        a.call_after(1.0, fired.append, "x")
        a.crash()
        loop.run_until(5.0)
        assert fired == []

    def test_timer_from_previous_incarnation_squelched(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        fired = []
        a.call_after(1.0, fired.append, "old")
        a.crash()
        a.restart()
        a.call_after(2.0, fired.append, "new")
        loop.run_until(5.0)
        assert fired == ["new"]

    def test_fired_timer_releases_its_arguments(self, world):
        # The host keeps its timer handles until a prune; a fired one
        # must not keep what it was given (an acked request and its
        # entries) alive meanwhile.
        loop, net = world
        a, _ = make_host(loop, net, "a")
        argument = SizedMessage(1)
        ref = weakref.ref(argument)
        fired = []
        a.call_after(0.5, lambda message: fired.append(message.wire_size), argument)
        del argument
        loop.run_until(1.0)
        gc.collect()
        assert fired == [1]
        assert ref() is None

    def test_timer_list_keeps_only_queued_timers(self, world):
        # Timers that fired at the current instant are done too, though
        # their fire time is not yet in the past.
        loop, net = world
        a, _ = make_host(loop, net, "a")
        for _ in range(300):
            a.call_after(0.0, lambda: None)
        loop.run_until(loop.now)
        pending = a.call_after(1.0, lambda: None)
        assert a._timers == [pending]

    def test_crash_kills_spawned_processes(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        progress = []

        def routine():
            progress.append("start")
            yield 1.0
            progress.append("end")

        a.spawn(routine())
        loop.run_until(0.5)
        a.crash()
        loop.run_until(5.0)
        assert progress == ["start"]

    def test_crash_mid_sleep_never_resumes_even_after_restart(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        progress = []

        def routine():
            progress.append("start")
            yield 1.0
            progress.append("end")

        a.spawn(routine())
        loop.run_until(0.5)
        a.crash()
        assert loop.pending_count() == 0  # the sleep's timer died with the host
        a.restart()
        loop.run_until(5.0)
        assert progress == ["start"]

    def test_pause_spanning_a_sleep_resumes_at_the_resume_instant(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        times = []

        def routine():
            yield 1.0
            times.append(loop.now)
            yield 1.0
            times.append(loop.now)

        a.spawn(routine())
        loop.run_until(0.5)
        a.pause()
        loop.run_until(3.0)
        assert times == []  # the sleep ended at 1.0 on a frozen host
        a.resume()
        loop.run_until(3.0)
        assert times == [3.0]  # thawed at the resume instant, not at 1.0
        loop.run_until(10.0)
        assert times == [3.0, 4.0]

    def test_pause_ending_before_the_sleep_does_not_move_it(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        times = []

        def routine():
            yield 1.0
            times.append(loop.now)

        a.spawn(routine())
        loop.run_until(0.2)
        a.pause_for(0.5)
        loop.run_until(5.0)
        assert times == [1.0]

    def test_crash_while_paused_mid_sleep_never_resumes(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        progress = []

        def routine():
            progress.append("start")
            yield 1.0
            progress.append("end")

        a.spawn(routine())
        loop.run_until(0.5)
        a.pause()
        loop.run_until(2.0)  # the sleep ended; the resume waits on the pause barrier
        a.crash()
        a.restart()
        loop.run_until(5.0)
        assert progress == ["start"]

    def test_disk_survives_crash(self, world):
        loop, net = world
        a, _ = make_host(loop, net, "a")
        a.disk.put("meta", "term", 7)
        a.crash()
        a.restart()
        assert a.disk.get("meta", "term") == 7

    def test_restart_notifies_service(self, world):
        loop, net = world
        a, svc = make_host(loop, net, "a")
        a.crash()
        a.restart()
        assert svc.restarts == 1

    def test_crash_for_auto_restarts(self, world):
        loop, net = world
        a, svc = make_host(loop, net, "a")
        a.crash_for(2.0)
        assert not a.alive
        loop.run_until(3.0)
        assert a.alive
        assert svc.restarts == 1

    def test_crash_is_idempotent(self, world):
        loop, net = world
        a, svc = make_host(loop, net, "a")
        a.crash()
        a.crash()
        assert svc.crashes == 1


class TestTracer:
    def test_crash_traced(self, world):
        loop, net = world
        tracer = Tracer(loop)
        a = Host(loop, net, "traced", "r1", tracer=tracer)
        a.attach_service(Recorder())
        a.crash()
        assert tracer.count("host.crash") == 1
        assert tracer.last("host.crash").get("host") == "traced"

    def test_capacity_truncation(self):
        loop = EventLoop()
        tracer = Tracer(loop, capacity=10)
        for i in range(25):
            tracer.emit("tick", i=i)
        assert len(tracer.records) <= 10
        assert tracer.dropped > 0


def test_path_blocked_with_and_without_partitions(world):
    loop, net = world
    make_host(loop, net, "a", "r1")
    make_host(loop, net, "b", "r2")
    make_host(loop, net, "c", "r1")
    # No partition anywhere: the early return still knows its hosts.
    assert not net.path_blocked("a", "b")
    assert net.path_blocked("a", "ghost") and net.path_blocked("ghost", "a")
    cuts = [
        (lambda: net.isolate("b"), lambda: net.heal("b")),
        (lambda: net.block_link("b", "a"), lambda: net.unblock_link("a", "b")),
        (lambda: net.partition_regions("r2", "r1"), lambda: net.heal_regions("r1", "r2")),
    ]
    for cut, heal in cuts:
        cut()
        assert net.path_blocked("a", "b") and net.path_blocked("b", "a")
        assert not net.path_blocked("a", "c")
        assert net.path_blocked("a", "ghost")
        heal()
        assert not net.path_blocked("a", "b")

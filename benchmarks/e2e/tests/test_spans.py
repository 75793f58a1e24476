"""Self-time arithmetic and class-level patching of the span recorder."""

from benchmarks.e2e.spans import (
    CLIENT_LAYER, ROOT, UNATTRIBUTED, SpanRecorder, callback_code, layer_of_file, self_times,
)


class FakeClock:
    """Returns scripted nanosecond readings, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_on_a_synthetic_tree():
    # root [0,100] ── a [10,60] ── b [20,30]
    #              │            └─ b [35,50]
    #              └─ b [70,90]
    spans = [
        [-1, "root", 0, 100, None],
        [0, "a", 10, 60, None],
        [1, "b", 20, 30, None],
        [1, "b", 35, 50, None],
        [0, "b", 70, 90, None],
    ]
    assert self_times(spans) == {"root": 30, "a": 25, "b": 45}
    assert sum(self_times(spans).values()) == 100  # partitions the root span


def test_recorder_aggregates_agree_with_reference_arithmetic():
    clock = FakeClock([0, 10, 20, 30, 35, 50, 60, 70, 90, 100])
    rec = SpanRecorder(clock=clock)
    b = rec.wrap("layer.b/op", lambda: None)
    a = rec.wrap("layer.a/op", lambda: (b(), b()))
    with rec.span(ROOT):
        a()
        b()
    assert rec.totals[ROOT] == [1, 100, 30]
    assert rec.totals["layer.a/op"] == [1, 50, 25]
    assert rec.totals["layer.b/op"] == [3, 45, 45]
    assert self_times(rec.spans) == {name: t[2] for name, t in rec.totals.items()}
    by_layer = rec.self_ns_by_layer()
    assert by_layer["sim"] == 30 and by_layer["layer.a"] == 25 and by_layer["layer.b"] == 45
    assert sum(by_layer.values()) == rec.root_ns() == 100


def test_wrappers_record_only_under_a_root_span():
    rec = SpanRecorder(clock=FakeClock(range(0, 1000, 7)))
    seen = []
    rec.observers["x/f"] = lambda args, result: seen.append(result)
    f = rec.wrap("x/f", lambda: "done")
    assert f() == "done"  # no root open: straight through, observer still runs
    assert rec.totals["x/f"] == [0, 0, 0] and rec.spans == [] and seen == ["done"]
    with rec.span(ROOT):
        f()
    assert rec.totals["x/f"][0] == 1 and len(rec.spans) == 2
    f()
    assert rec.totals["x/f"][0] == 1 and len(seen) == 3


def test_observer_sees_arguments_and_result():
    rec = SpanRecorder()
    seen = []
    rec.observers["x/double"] = lambda args, result: seen.append((args, result))
    with rec.span(ROOT):
        assert rec.wrap("x/double", lambda v: 2 * v)(21) == 42
    assert seen == [((21,), 42)]


class Victim:
    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls.__name__

    @staticmethod
    def helper(value):
        return value + 1


def test_install_wraps_and_uninstall_restores_identity():
    originals = {name: Victim.__dict__[name] for name in ("method", "build", "helper")}
    rec = SpanRecorder()
    for name in originals:
        rec.install(Victim, name, f"victim/{name}")
    with rec.span(ROOT):
        assert Victim().method() == "method" and Victim.build() == "Victim" and Victim.helper(1) == 2
    assert [rec.calls(f"victim/{n}") for n in originals] == [1, 1, 1]
    assert all(Victim.__dict__[name] is not original for name, original in originals.items())
    rec.uninstall()
    assert all(Victim.__dict__[name] is original for name, original in originals.items())


def test_entry_points_restore_to_the_original_objects():
    from benchmarks.e2e import ledger
    from repro.sim.loop import Timer

    def current():
        found = {("Timer", "_fire"): Timer.__dict__["_fire"]}
        for module, owner, attribute, _name in ledger.ENTRY_POINTS:
            found[(module, owner, attribute)] = vars(ledger.resolve(module, owner))[attribute]
        return found

    before = current()
    rec = SpanRecorder()
    ledger.install(rec)
    patched = current()
    assert all(patched[key] is not before[key] for key in before)
    rec.uninstall()
    after = current()
    assert all(after[key] is before[key] for key in before)


def test_layer_of_file():
    assert layer_of_file("/x/src/repro/raft/node.py") == "raft.tick"
    assert layer_of_file("/x/src/repro/raft/log_cache.py") == "raft.log_cache"
    assert layer_of_file("/x/src/repro/sim/network.py") == "sim.net"
    assert layer_of_file("/x/src/repro/sim/coro.py") == "sim"
    assert layer_of_file("/x/src/repro/mysql/server.py") == "mysql.server"
    assert layer_of_file("/x/src/repro/plugin/binlog_storage.py") == "plugin.log_storage"
    assert layer_of_file("/x/benchmarks/e2e/loadgen.py") == "workload.client"
    assert layer_of_file("/usr/lib/python3/heapq.py") == UNATTRIBUTED
    assert layer_of_file("/x/src/repro/control/discovery.py") == UNATTRIBUTED


def _client_step():
    """A callback whose code lives in benchmarks/e2e."""


def _client_coroutine():
    yield 0.001
    yield 0.001


def test_dispatch_classifies_real_host_timers_and_process_steps():
    """``callback_code`` reads private names of ``repro.sim``; this drives
    the real ``Host.call_after`` guard and a real ``Process`` through it
    so that a rename there fails here, not as a quietly larger ``sim``
    layer."""
    from repro.sim.host import Host
    from repro.sim.loop import EventLoop, Timer
    from repro.sim.network import Network
    from repro.sim.rng import RngStream

    loop = EventLoop()
    host = Host(loop, Network(loop, RngStream(1)), "h1", "r1")
    node_timer = host.call_after(0.001, _client_step)
    assert callback_code(node_timer._callback) is _client_step.__code__
    process = host.spawn(_client_coroutine())
    assert callback_code(process._advance) is _client_coroutine.__code__
    assert callback_code(process._on_waited) is _client_coroutine.__code__
    assert callback_code(loop.run_until) is EventLoop.run_until.__code__

    rec = SpanRecorder()
    rec.install_dispatch(Timer)
    try:
        with rec.span(ROOT):
            loop.run_until(0.01)
    finally:
        rec.uninstall()
    # One guarded timer + the coroutine's three steps, all in this file's
    # layer; the two sleep timers resolve futures in repro/sim/coro.py.
    assert rec.calls(f"{CLIENT_LAYER}/dispatch") == 4
    assert rec.calls("sim/dispatch") == 2
    assert rec.calls(f"{UNATTRIBUTED}/dispatch") == 0


def test_nothing_is_recorded_after_uninstall_while_the_cluster_runs():
    """``make_pipeline_for_server`` captures ``engine_commit_group`` as a
    bound method while it is patched, so that wrapper outlives
    ``uninstall``; it must not record once the root span is closed."""
    from benchmarks.e2e import ledger
    from repro.cluster import MyRaftReplicaset, paper_topology

    rec = SpanRecorder()
    ledger.install(rec)
    try:
        cluster = MyRaftReplicaset(paper_topology(follower_regions=1, learners=0), seed=1)
        cluster.bootstrap()
        primary = cluster.primary_service()
        with rec.span(ROOT):
            primary.submit_write("t", {1: {"id": 1, "v": "a"}})
            cluster.run(1.0)
    finally:
        rec.uninstall()
    assert rec.calls("mysql.server/engine_commit_group") >= 1
    frozen = {name: list(total) for name, total in rec.totals.items()}
    primary.submit_write("t", {2: {"id": 2, "v": "b"}})
    cluster.run(1.0)
    assert primary.mysql.engine.table("t").get(2) is not None  # it did commit
    assert rec.totals == frozen and not rec.stack
    assert sum(rec.self_ns_by_layer().values()) == rec.root_ns()

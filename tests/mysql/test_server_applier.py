"""MySQLServer write path and Applier unit tests (over a real host, with
scripted pipeline stage behaviour)."""

import pytest

from repro.errors import ReadOnlyError
from repro.mysql.applier import Applier
from repro.mysql.events import Transaction
from repro.mysql.server import MySQLServer, ServerRole, make_pipeline_for_server
from repro.mysql.timing import TimingProfile
from repro.raft.log_storage import ENTRY_KIND_DATA, LogEntry
from repro.raft.types import OpId
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import FixedLatency, Network, NetworkSpec
from repro.sim.rng import RngStream


class ServerWorld:
    """A standalone primary whose consensus waits are scripted."""

    def __init__(self, auto_consensus=True):
        self.loop = EventLoop()
        net = Network(self.loop, RngStream(3), spec=NetworkSpec(in_region=FixedLatency(0.001)))
        self.host = Host(self.loop, net, "solo", "r1")
        self.host.attach_service(object())
        self.server = MySQLServer(
            self.host, TimingProfile(), RngStream(3), initial_role=ServerRole.PRIMARY
        )
        self.auto_consensus = auto_consensus
        self.waiters = []
        self.flushed = []
        self.next_index = 0
        make_pipeline_for_server(self.server, self._flush, self._wait, name="solo-pipeline")
        self.server.enable_client_writes()

    def reset_pipeline(self):
        """Replace a stopped pipeline (mirrors the plugin's runtime rebuild
        after a role change)."""
        make_pipeline_for_server(self.server, self._flush, self._wait, name="solo-pipeline")

    def _flush(self, group):
        for txn in group:
            self.next_index += 1
            opid = OpId(1, self.next_index)
            txn.opid = opid
            if txn.engine_txn is not None:
                txn.engine_txn.opid = opid
            stamped = txn.payload.with_opid(opid)
            self.server.log_manager.append_transaction(stamped)
            self.flushed.append(stamped)
        return group[-1].opid

    def _wait(self, opid):
        future = SimFuture(self.loop, label=f"wait:{opid}")
        if self.auto_consensus:
            future.resolve(opid)
        else:
            self.waiters.append((opid, future))
        return future

    def write(self, table, rows):
        return self.host.spawn(self.server.client_write(table, rows))


class TestClientWritePath:
    def test_write_commits_and_returns_opid(self):
        world = ServerWorld()
        process = world.write("users", {1: {"id": 1, "name": "a"}})
        world.loop.run_for(0.1)
        assert process.done() and process.result() == OpId(1, 1)
        assert world.server.engine.table("users").get(1) == {"id": 1, "name": "a"}

    def test_gtid_assigned_at_commit(self):
        world = ServerWorld()
        world.write("t", {1: {"id": 1}})
        world.loop.run_for(0.1)
        executed = world.server.engine.executed_gtids
        assert executed.count() == 1
        assert executed.last_txn_id(world.server.server_uuid) == 1

    def test_payload_has_rbr_events(self):
        world = ServerWorld()
        world.write("t", {1: {"id": 1, "v": "x"}, 2: {"id": 2, "v": "y"}})
        world.loop.run_for(0.1)
        txn = world.flushed[0]
        kinds = [type(e).__name__ for e in txn.events]
        assert kinds[0] == "GtidEvent"
        assert kinds[1] == "QueryEvent"
        assert "TableMapEvent" in kinds
        assert kinds.count("RowsEvent") == 2
        assert kinds[-1] == "XidEvent"

    def test_read_only_rejects(self):
        world = ServerWorld()
        world.server.disable_client_writes()
        process = world.write("t", {1: {"id": 1}})
        world.loop.run_for(0.1)
        with pytest.raises(ReadOnlyError):
            process.result()
        assert world.server.writes_rejected == 1

    def test_delete_through_write_path(self):
        world = ServerWorld()
        world.write("t", {1: {"id": 1}})
        world.loop.run_for(0.1)
        world.write("t", {1: None})
        world.loop.run_for(0.1)
        assert world.server.engine.table("t").get(1) is None

    def test_conflicting_writes_serialize_on_row_locks(self):
        world = ServerWorld(auto_consensus=False)
        first = world.write("t", {1: {"id": 1, "v": "first"}})
        world.loop.run_for(0.01)
        second = world.write("t", {1: {"id": 1, "v": "second"}})
        world.loop.run_for(0.05)
        # Second blocked on the row lock: no second flush yet.
        assert len(world.flushed) == 1
        # Release consensus for the first; it commits, releasing the lock.
        opid, future = world.waiters.pop(0)
        future.resolve(opid)
        world.loop.run_for(0.05)
        assert first.done() and not first.failed()
        # Now the second proceeds through the pipeline.
        world.loop.run_for(0.05)
        assert len(world.flushed) == 2
        opid, future = world.waiters.pop(0)
        future.resolve(opid)
        world.loop.run_for(0.05)
        assert second.done() and not second.failed()
        assert world.server.engine.table("t").get(1) == {"id": 1, "v": "second"}

    def test_abort_in_flight_rolls_back(self):
        world = ServerWorld(auto_consensus=False)
        process = world.write("t", {1: {"id": 1}})
        world.loop.run_for(0.05)
        aborted = world.server.abort_in_flight("demotion test")
        world.loop.run_for(0.05)
        assert aborted == 1
        assert process.done() and process.failed()
        assert world.server.engine.table("t").get(1) is None
        assert world.server.engine.locks.held_count() == 0

    def test_crash_recovery_rolls_back_prepared(self):
        world = ServerWorld(auto_consensus=False)
        world.write("t", {1: {"id": 1}})
        world.loop.run_for(0.05)
        assert world.server.engine.prepared_xids()
        report = world.server.recover_after_restart()
        assert report["rolled_back_xids"]
        assert world.server.engine.table("t").get(1) is None
        assert world.server.read_only


class TestEngineCommitLateBinding:
    def test_class_level_patch_reaches_a_live_pipeline_and_leaves_nothing_behind(self):
        # The pipeline exists before the patch: a commit_fn captured as a
        # bound method at build time would never see the wrapper, and one
        # captured while patched would keep it after the restore.
        world = ServerWorld()
        original = MySQLServer.__dict__["engine_commit_group"]
        seen = []

        def wrapper(server, group):
            seen.append(len(group))
            return original(server, group)

        MySQLServer.engine_commit_group = wrapper
        try:
            world.write("t", {1: {"id": 1}})
            world.loop.run_for(0.1)
            assert seen == [1]  # reached the pipeline built before the patch
            world.reset_pipeline()  # and one built while patched
            world.write("t", {2: {"id": 2}})
            world.loop.run_for(0.1)
            assert seen == [1, 1]
        finally:
            MySQLServer.engine_commit_group = original
        assert MySQLServer.__dict__["engine_commit_group"] is original

        world.write("t", {3: {"id": 3}})
        world.loop.run_for(0.1)
        assert seen == [1, 1]  # no wrapper left behind in the live pipeline
        for pk in (1, 2, 3):
            assert world.server.engine.table("t").get(pk) == {"id": pk}


class TestApplier:
    def make_applier_world(self):
        world = ServerWorld()
        # Build a source log: transactions produced by another server.
        source = ServerWorld()
        for i in range(1, 4):
            source.write("t", {i: {"id": i, "v": f"v{i}"}})
            source.loop.run_for(0.1)
        entries = [
            (txn, ENTRY_KIND_DATA) for txn in source.flushed
        ]

        replica_world = ServerWorld(auto_consensus=True)
        replica_world.server.disable_client_writes()

        def entry_source(index):
            if index - 1 < len(entries):
                return entries[index - 1]
            return None

        applier = Applier(
            host=replica_world.host,
            engine=replica_world.server.engine,
            entry_source=entry_source,
            pipeline=replica_world.server.pipeline,
            timing=TimingProfile(),
            rng=RngStream(5),
        )
        replica_world.server.applier = applier
        return replica_world, applier, entries

    def test_applier_applies_all(self):
        world, applier, entries = self.make_applier_world()
        applier.start(1)
        world.loop.run_for(0.5)
        for i in range(1, 4):
            assert world.server.engine.table("t").get(i) == {"id": i, "v": f"v{i}"}
        assert applier.applied == 3
        assert applier.cursor == 4

    def test_applier_skips_executed_duplicates(self):
        world, applier, entries = self.make_applier_world()
        applier.start(1)
        world.loop.run_for(0.5)
        applier.stop()
        # Restart from 1: everything is a duplicate now.
        fresh = Applier(
            host=world.host,
            engine=world.server.engine,
            entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
            pipeline=world.server.pipeline,
            timing=TimingProfile(),
            rng=RngStream(6),
        )
        fresh.start(1)
        world.loop.run_for(0.5)
        assert fresh.skipped_duplicates == 3
        assert world.server.engine.table("t").get(1) == {"id": 1, "v": "v1"}

    def test_catch_up_future(self):
        world, applier, entries = self.make_applier_world()
        applier.start(1)
        catchup = applier.catch_up_to(3)
        world.loop.run_for(0.5)
        assert catchup.done() and not catchup.failed()

    def test_signal_wakes_idle_applier(self):
        world, applier, entries = self.make_applier_world()
        extra = []

        original_source = applier._entry_source

        def source(index):
            base = original_source(index)
            if base is not None:
                return base
            if index - 4 < len(extra) and index >= 4:
                return extra[index - 4]
            return None

        applier._entry_source = source
        applier.start(1)
        world.loop.run_for(0.5)
        assert applier.cursor == 4  # idle at the log's end
        # New entry arrives; signal the applier.
        new_txn = entries[0][0].with_opid(OpId(1, 4))
        # give it a fresh gtid so it isn't a duplicate
        from repro.mysql.events import GtidEvent

        first = new_txn.events[0]
        fresh_gtid = GtidEvent("UUID-OTHER", 1, OpId(1, 4))
        new_txn = Transaction(events=(fresh_gtid,) + tuple(new_txn.events[1:]))
        extra.append((new_txn, ENTRY_KIND_DATA))
        applier.signal()
        world.loop.run_for(0.5)
        assert applier.cursor == 5
        assert applier.applied == 4

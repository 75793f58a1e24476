"""Applier teardown regression: stopping mid-apply must not leak the
engine transaction being built, or a later incarnation replaying the same
GTID collides with the stale xid ("xid already active")."""

from repro.mysql.applier import Applier
from repro.mysql.timing import TimingProfile
from repro.raft.log_storage import ENTRY_KIND_DATA
from repro.sim.rng import RngStream

from tests.mysql.test_server_applier import ServerWorld


def build_relay_entries(count=3):
    source = ServerWorld()
    for i in range(1, count + 1):
        source.write("t", {i: {"id": i, "v": f"v{i}"}})
        source.loop.run_for(0.1)
    return [(txn, ENTRY_KIND_DATA) for txn in source.flushed]


def make_applier(world, entries, rng_seed):
    return Applier(
        host=world.host,
        engine=world.server.engine,
        entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
        pipeline=world.server.pipeline,
        timing=TimingProfile(),
        rng=RngStream(rng_seed),
    )


class TestApplierTeardown:
    def run_until_mid_apply(self, world, applier):
        """Step the loop until the applier is inside _execute (an engine
        transaction is begun but not yet handed to the pipeline)."""
        applier.start(1)
        for _ in range(10_000):
            world.loop.run_for(0.00005)
            if applier._building is not None:
                return
        raise AssertionError("applier never entered mid-apply window")

    def test_stop_mid_apply_rolls_back_building_txn(self):
        entries = build_relay_entries()
        world = ServerWorld()
        world.server.disable_client_writes()
        applier = make_applier(world, entries, rng_seed=5)

        self.run_until_mid_apply(world, applier)
        applier.stop()

        assert applier._building is None
        # The half-built transaction was rolled back; anything still
        # in-flight is owned by the pipeline (prepared, not active).
        assert [t for t in world.server.engine.in_flight() if t.state == "active"] == []
        # Pipeline-owned transactions drain to commit; nothing lingers.
        world.loop.run_for(0.5)
        assert world.server.engine.in_flight() == []
        assert world.server.engine.prepared_xids() == set()
        assert world.server.engine.locks.held_count() == 0

    def test_fresh_incarnation_replays_same_gtids(self):
        entries = build_relay_entries()
        world = ServerWorld()
        world.server.disable_client_writes()
        first = make_applier(world, entries, rng_seed=5)

        self.run_until_mid_apply(world, first)
        # MySQLServer.stop_runtime's order: stop the pipeline (aborting
        # pipeline-owned transactions), then the applier (rolling back the
        # half-built one).
        world.server.pipeline.stop("role change")
        first.stop()
        assert world.server.engine.in_flight() == []

        # Online recovery (§3.3 step 5): a fresh runtime restarts the apply
        # loop from the engine's last committed index. The interrupted
        # transactions are re-executed with the same GTIDs — and the same
        # deterministic xids, which is exactly where a leaked engine
        # transaction would raise "xid already active".
        world.reset_pipeline()
        second = make_applier(world, entries, rng_seed=6)
        second.start(world.server.engine.last_committed_opid.index + 1)
        world.loop.run_for(0.5)
        for i in range(1, 4):
            assert world.server.engine.table("t").get(i) == {"id": i, "v": f"v{i}"}
        assert second.applied >= 2  # everything not already committed

    def test_stop_when_idle_is_a_no_op(self):
        entries = build_relay_entries()
        world = ServerWorld()
        world.server.disable_client_writes()
        applier = make_applier(world, entries, rng_seed=7)
        applier.start(1)
        world.loop.run_for(0.5)  # drains the relay log, then parks
        assert applier.applied == 3
        applier.stop()
        assert world.server.engine.in_flight() == []
        # Stop is idempotent.
        applier.stop()
        assert not applier.running

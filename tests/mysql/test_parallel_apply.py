"""Multi-threaded (MTS) applier: LOGICAL_CLOCK scheduling, duplicate-GTID
skip, catch_up_to, and stop() mid-group rollback — under both serial and
parallel modes, against the same relay-log entries — plus a replica's
catch-up drain on the paper topology, serial against 4 workers."""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.cluster import MyRaftReplicaset, paper_topology
from repro.mysql.applier import Applier
from repro.mysql.events import GtidEvent
from repro.mysql.timing import TimingProfile
from repro.raft.config import RaftConfig
from repro.raft.log_storage import ENTRY_KIND_DATA
from repro.sim.rng import RngStream
from repro.workload.profiles import production_timing

from tests.mysql.test_server_applier import ServerWorld


def build_stamped_entries(count=6, chain=False):
    """Relay-log entries carrying LOGICAL_CLOCK metadata, the way a raft
    primary's flush stage stamps them. ``chain=False`` marks every
    transaction independent (commit parent 0); ``chain=True`` makes each
    depend on its predecessor (a fully serialized group)."""
    source = ServerWorld()
    for i in range(1, count + 1):
        source.write("t", {i: {"id": i, "v": f"v{i}"}})
        source.loop.run_for(0.1)
    entries = []
    for seq, txn in enumerate(source.flushed, start=1):
        last_committed = seq - 1 if chain else 0
        stamped = txn.with_commit_meta(
            txn.gtid_event.opid, last_committed, seq
        )
        entries.append((stamped, ENTRY_KIND_DATA))
    return entries


def make_replica(entries, rng_seed, workers):
    world = ServerWorld()
    world.server.disable_client_writes()
    applier = Applier(
        host=world.host,
        engine=world.server.engine,
        entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
        pipeline=world.server.pipeline,
        timing=TimingProfile(),
        rng=RngStream(rng_seed),
        workers=workers,
    )
    return world, applier


def assert_all_applied(world, count):
    for i in range(1, count + 1):
        assert world.server.engine.table("t").get(i) == {"id": i, "v": f"v{i}"}


class TestDuplicateSkip:
    def drain_then_restart(self, workers):
        entries = build_stamped_entries()
        world, applier = make_replica(entries, rng_seed=5, workers=workers)
        applier.start(1)
        world.loop.run_for(0.5)
        assert applier.applied == len(entries)
        applier.stop()
        # Restart from index 1: every GTID is already executed.
        fresh = Applier(
            host=world.host,
            engine=world.server.engine,
            entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
            pipeline=world.server.pipeline,
            timing=TimingProfile(),
            rng=RngStream(6),
            workers=workers,
        )
        fresh.start(1)
        world.loop.run_for(0.5)
        assert fresh.skipped_duplicates == len(entries)
        assert fresh.applied == 0
        assert fresh.cursor == len(entries) + 1
        assert_all_applied(world, len(entries))

    def test_serial_skips_duplicates(self):
        self.drain_then_restart(workers=1)

    def test_parallel_skips_duplicates(self):
        self.drain_then_restart(workers=4)


class TestCatchUp:
    def catch_up(self, workers):
        entries = build_stamped_entries()
        world, applier = make_replica(entries, rng_seed=5, workers=workers)
        applier.start(1)
        catchup = applier.catch_up_to(len(entries))
        world.loop.run_for(0.5)
        assert catchup.done() and not catchup.failed()
        assert_all_applied(world, len(entries))

    def test_catch_up_serial(self):
        self.catch_up(workers=1)

    def test_catch_up_parallel(self):
        self.catch_up(workers=4)


class TestLogicalClockScheduling:
    def test_independent_group_overlaps_and_matches_serial(self):
        entries = build_stamped_entries(count=8)
        serial_world, serial = make_replica(entries, rng_seed=5, workers=1)
        serial.start(1)
        serial_world.loop.run_for(1.0)

        parallel_world, parallel = make_replica(entries, rng_seed=5, workers=4)
        parallel.start(1)
        parallel_world.loop.run_for(1.0)

        assert parallel.applied == serial.applied == 8
        assert parallel.stats()["peak_inflight"] > 1
        # The in-order pipeline makes engine state byte-identical.
        assert (
            parallel_world.server.engine.checksum()
            == serial_world.server.engine.checksum()
        )
        gtids = parallel_world.server.engine.executed_gtids
        assert gtids.count() == 8

    def test_dependency_chain_never_overlaps(self):
        entries = build_stamped_entries(count=6, chain=True)
        world, applier = make_replica(entries, rng_seed=5, workers=4)
        applier.start(1)
        world.loop.run_for(1.0)
        assert applier.applied == 6
        # Each commit parent gates the next: the scheduler degrades to
        # serial despite 4 idle workers.
        assert applier.stats()["peak_inflight"] == 1
        assert_all_applied(world, 6)


class TestStopMidGroup:
    def run_until_workers_inflight(self, world, applier, want=2):
        """Step the loop until >= ``want`` worker transactions are begun
        but not yet handed to the pipeline."""
        applier.start(1)
        for _ in range(10_000):
            world.loop.run_for(0.00005)
            if len(applier._owned) >= want:
                return
        raise AssertionError("workers never overlapped in-flight transactions")

    def test_stop_mid_group_rolls_back_all_inflight(self):
        entries = build_stamped_entries(count=8)
        world, applier = make_replica(entries, rng_seed=5, workers=4)

        self.run_until_workers_inflight(world, applier)
        applier.stop()

        assert applier._owned == {}
        # Every worker-owned transaction was rolled back; anything still
        # in flight is pipeline-owned (prepared, draining to commit).
        assert [t for t in world.server.engine.in_flight() if t.state == "active"] == []
        world.loop.run_for(0.5)
        assert world.server.engine.in_flight() == []
        assert world.server.engine.prepared_xids() == set()
        assert world.server.engine.locks.held_count() == 0

        # Online recovery (§3.3 step 5): a fresh incarnation re-applies
        # the interrupted transactions — same GTIDs, same deterministic
        # xids, which is where a leaked engine transaction would raise
        # "xid already active".
        world.reset_pipeline()
        second = Applier(
            host=world.host,
            engine=world.server.engine,
            entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
            pipeline=world.server.pipeline,
            timing=TimingProfile(),
            rng=RngStream(6),
            workers=4,
        )
        second.start(world.server.engine.last_committed_opid.index + 1)
        world.loop.run_for(1.0)
        assert_all_applied(world, 8)


def drain_backlog(workers, txns=300, rows_per_txn=8):
    """STOP REPLICA SQL_THREAD on a remote-region database of the paper
    topology, pump ``txns`` low-contention multi-row writes into its relay
    log, then START it and time the drain in simulated seconds."""
    rs = MyRaftReplicaset(
        paper_topology(),
        seed=1,
        raft_config=RaftConfig(parallel_apply_workers=workers),
        timing=production_timing(myraft=True),
        trace_capacity=256,
    )
    primary = rs.bootstrap()
    lagging = next(
        s for s in rs.database_services() if s.host.region != primary.host.region
    )
    lagging.mysql.stop_sql_thread()
    for first in range(0, txns, 32):
        batch = []
        for n in range(first, min(first + 32, txns)):
            keys = range(n * rows_per_txn, (n + 1) * rows_per_txn)
            batch.append(primary.submit_write("kv", {k: {"id": k, "n": n} for k in keys}))
        while not all(p.done() for p in batch):
            rs.run(0.05)
    goal = primary.node.last_opid.index
    while lagging.node.last_opid.index < goal or lagging.node.commit_index < goal:
        rs.run(0.02)  # the relay log holds the whole backlog
    assert goal - lagging.mysql.engine.last_committed_opid.index >= txns
    started = rs.loop.now
    lagging.mysql.start_sql_thread()
    while lagging.mysql.engine.last_committed_opid.index < goal:
        assert rs.loop.now - started < 30.0, "the replica never drained its backlog"
        rs.run(0.005)
    drain = rs.loop.now - started
    rs.run(2.0)
    return {
        "drain": drain,
        "peak_inflight": lagging.applier.stats()["peak_inflight"],
        "apply_lag": lagging.node.stats()["apply_lag"],
        "checksums": (
            lagging.mysql.engine.checksum(),
            primary.mysql.log_manager.content_checksum(),
        ),
        "converged": rs.databases_converged(),
    }


class TestPaperTopologyCatchUp:
    @pytest.fixture(scope="class")
    def drains(self):
        return {workers: drain_backlog(workers) for workers in (1, 4)}

    def test_four_workers_drain_at_least_twice_as_fast(self, drains):
        assert drains[1]["drain"] >= 2 * drains[4]["drain"]

    def test_workers_overlap_and_the_lag_closes(self, drains):
        assert drains[4]["peak_inflight"] > 1
        assert drains[4]["apply_lag"] == 0

    def test_serial_and_parallel_end_in_the_same_state(self, drains):
        assert drains[1]["checksums"] == drains[4]["checksums"]
        assert drains[1]["converged"] and drains[4]["converged"]


class TestApplierXidStability:
    """The applier xid must be identical across processes and hash seeds:
    repro bundles replay byte-for-byte only if every derived quantity is
    independent of hash randomization."""

    def test_xid_matches_stable_digest(self):
        event = GtidEvent("UUID-A", 17, None)
        expected = int.from_bytes(
            hashlib.sha256(b"UUID-A/17").digest()[:8], "big"
        ) + (1 << 44)
        assert Applier._applier_xid(event) == expected

    def test_xid_independent_of_hash_randomization(self):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        snippet = (
            "from repro.mysql.applier import Applier\n"
            "from repro.mysql.events import GtidEvent\n"
            "print(Applier._applier_xid(GtidEvent('UUID-A', 17, None)))\n"
        )

        def xid_under(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.strip()

        assert xid_under("0") == xid_under("101")


class PerEventApplier(Applier):
    """Reference: one suspension per binlog event, rows written as their
    event comes up — the behaviour the single-suspension applier must be
    indistinguishable from."""

    def _apply_events(self, engine_txn, txn, rng):
        from repro.mysql.events import RowsEvent, TableMapEvent, XidEvent

        table_names = {}
        for event in txn.events[1:]:
            yield self.timing.applier_event(rng)
            if isinstance(event, TableMapEvent):
                table_names[event.table_id] = event.table
            elif isinstance(event, RowsEvent):
                self._apply_rows(engine_txn, table_names, event)
            elif isinstance(event, XidEvent):
                break


class TestOneSuspensionPerTransaction:
    @staticmethod
    def build_entries():
        """Independent stamped transactions of 1-4 rows (3-9 events)."""
        source = ServerWorld()
        for i in range(1, 13):
            rows = {i * 10 + k: {"id": i * 10 + k, "v": f"v{i}.{k}"} for k in range(1 + i % 4)}
            source.write("t", rows)
            source.loop.run_for(0.1)
        return [
            (txn.with_commit_meta(txn.gtid_event.opid, 0, seq), ENTRY_KIND_DATA)
            for seq, txn in enumerate(source.flushed, start=1)
        ]

    @staticmethod
    def run(applier_cls, entries, workers):
        world = ServerWorld()
        world.server.disable_client_writes()
        # A realistic clock: replicas never apply in the first
        # microseconds of a run (see Applier._apply_events).
        world.loop.run_for(1.0)
        applier = applier_cls(
            host=world.host,
            engine=world.server.engine,
            entry_source=lambda i: entries[i - 1] if i - 1 < len(entries) else None,
            pipeline=world.server.pipeline,
            timing=TimingProfile(),
            rng=RngStream(11),
            workers=workers,
        )
        engine = world.server.engine
        timeline = []
        for step in ("prepare", "commit"):
            def timed(txn, step=step, inner=getattr(engine, step)):
                timeline.append((step, str(txn.gtid), world.loop.now))
                inner(txn)
            setattr(engine, step, timed)
        applier.start(1)
        world.loop.run_for(1.0)
        assert applier.applied == len(entries)
        return timeline, engine.checksum(), world.loop.events_processed

    def test_same_times_and_state_as_the_per_event_reference(self):
        entries = self.build_entries()
        checksums = set()
        for workers in (1, 4):
            timeline, checksum, events = self.run(Applier, entries, workers)
            ref_timeline, ref_checksum, ref_events = self.run(PerEventApplier, entries, workers)
            # Exact float equality: every prepare and every engine commit
            # happens at the same simulated instant, in the same order.
            assert timeline == ref_timeline
            assert checksum == ref_checksum
            assert len(timeline) == 2 * len(entries)
            # ... for one loop event per transaction instead of one per
            # binlog event after the framing one.
            per_event = sum(len(txn.events) - 1 for txn, _kind in entries)
            assert ref_events - events == per_event - len(entries)
            checksums.add(checksum)
        assert len(checksums) == 1  # serial and 4-worker agree too

"""Storage-engine tests: two-phase commit, locks, recovery, checksums."""

import pytest

from repro.errors import MySQLError
from repro.mysql.engine import LockTable, StorageEngine
from repro.mysql.gtid import Gtid
from repro.raft.types import OpId

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"


def make_engine():
    return StorageEngine({}, {})


class TestLockTable:
    def test_acquire_free_lock(self):
        locks = LockTable()
        assert locks.try_acquire(("t", 1), 100, lambda: None) is True
        assert locks.owner_of(("t", 1)) == 100

    def test_reentrant(self):
        locks = LockTable()
        locks.try_acquire(("t", 1), 100, lambda: None)
        assert locks.try_acquire(("t", 1), 100, lambda: None) is True

    def test_conflict_queues_waiter(self):
        locks = LockTable()
        granted = []
        locks.try_acquire(("t", 1), 100, lambda: None)
        assert locks.try_acquire(("t", 1), 200, lambda: granted.append(200)) is False
        assert granted == []
        locks.release_all(100)
        assert granted == [200]
        assert locks.owner_of(("t", 1)) == 200

    def test_fifo_grant_order(self):
        locks = LockTable()
        granted = []
        locks.try_acquire(("t", 1), 1, lambda: None)
        locks.try_acquire(("t", 1), 2, lambda: granted.append(2))
        locks.try_acquire(("t", 1), 3, lambda: granted.append(3))
        locks.release_all(1)
        assert granted == [2]
        locks.release_all(2)
        assert granted == [2, 3]

    def test_abandon_waits(self):
        locks = LockTable()
        granted = []
        locks.try_acquire(("t", 1), 1, lambda: None)
        locks.try_acquire(("t", 1), 2, lambda: granted.append(2))
        locks.abandon_waits(2)
        locks.release_all(1)
        assert granted == []
        assert locks.owner_of(("t", 1)) is None


class TestTransactionLifecycle:
    def test_write_commit_visible(self):
        engine = make_engine()
        txn = engine.begin(1)
        engine.write_row(txn, "users", 1, {"name": "ann"})
        engine.prepare(txn)
        txn.gtid = Gtid(UUID, 1)
        txn.opid = OpId(1, 1)
        engine.commit(txn)
        assert engine.table("users").get(1) == {"name": "ann"}
        assert Gtid(UUID, 1) in engine.executed_gtids
        assert engine.last_committed_opid == OpId(1, 1)

    def test_uncommitted_write_invisible(self):
        engine = make_engine()
        txn = engine.begin(1)
        engine.write_row(txn, "users", 1, {"name": "ann"})
        assert engine.table("users").get(1) is None

    def test_before_image_tracks_own_writes(self):
        engine = make_engine()
        txn = engine.begin(1)
        first = engine.write_row(txn, "t", 1, {"v": 1})
        second = engine.write_row(txn, "t", 1, {"v": 2})
        assert first.before is None and first.kind == "write"
        assert second.before == {"v": 1} and second.kind == "update"

    def test_delete(self):
        engine = make_engine()
        setup = engine.begin(1)
        engine.write_row(setup, "t", 1, {"v": 1})
        engine.prepare(setup)
        engine.commit(setup)

        txn = engine.begin(2)
        change = engine.delete_row(txn, "t", 1)
        assert change.kind == "delete"
        engine.prepare(txn)
        engine.commit(txn)
        assert engine.table("t").get(1) is None

    def test_delete_missing_row_rejected(self):
        engine = make_engine()
        txn = engine.begin(1)
        with pytest.raises(MySQLError):
            engine.delete_row(txn, "t", 404)

    def test_rollback_discards(self):
        engine = make_engine()
        txn = engine.begin(1)
        engine.write_row(txn, "t", 1, {"v": 1})
        engine.prepare(txn)
        engine.rollback(txn)
        assert engine.table("t").get(1) is None
        assert engine.rollbacks == 1

    def test_commit_requires_prepare(self):
        engine = make_engine()
        txn = engine.begin(1)
        with pytest.raises(MySQLError):
            engine.commit(txn)

    def test_double_begin_rejected(self):
        engine = make_engine()
        engine.begin(1)
        with pytest.raises(MySQLError):
            engine.begin(1)

    def test_write_after_prepare_rejected(self):
        engine = make_engine()
        txn = engine.begin(1)
        engine.prepare(txn)
        with pytest.raises(MySQLError):
            engine.write_row(txn, "t", 1, {})

    def test_commit_releases_locks(self):
        engine = make_engine()
        txn = engine.begin(1)
        engine.write_row(txn, "t", 1, {"v": 1})
        for key in engine.lock_keys(txn):
            engine.locks.try_acquire(key, txn.xid, lambda: None)
        engine.prepare(txn)
        engine.commit(txn)
        assert engine.locks.held_count() == 0


class TestRecovery:
    def test_prepared_rolled_back_on_recover(self):
        durable_tables, durable_meta = {}, {}
        engine = StorageEngine(durable_tables, durable_meta)
        committed = engine.begin(1)
        engine.write_row(committed, "t", 1, {"v": "keep"})
        engine.prepare(committed)
        committed.gtid = Gtid(UUID, 1)
        engine.commit(committed)

        dangling = engine.begin(2)
        engine.write_row(dangling, "t", 2, {"v": "lose"})
        engine.prepare(dangling)

        # crash: new engine over the same durable state
        recovered = StorageEngine(durable_tables, durable_meta)
        rolled_back = recovered.recover()
        assert rolled_back == [2]
        assert recovered.table("t").get(1) == {"v": "keep"}
        assert recovered.table("t").get(2) is None
        assert recovered.prepared_xids() == set()

    def test_executed_gtids_survive_crash(self):
        durable_tables, durable_meta = {}, {}
        engine = StorageEngine(durable_tables, durable_meta)
        txn = engine.begin(1)
        engine.write_row(txn, "t", 1, {})
        engine.prepare(txn)
        txn.gtid = Gtid(UUID, 7)
        engine.commit(txn)

        recovered = StorageEngine(durable_tables, durable_meta)
        assert Gtid(UUID, 7) in recovered.executed_gtids


class TestChecksum:
    def test_same_content_same_checksum(self):
        a, b = make_engine(), make_engine()
        for engine in (a, b):
            txn = engine.begin(1)
            engine.write_row(txn, "t", 1, {"v": "x"})
            engine.prepare(txn)
            engine.commit(txn)
        assert a.checksum() == b.checksum()

    def test_different_content_different_checksum(self):
        a, b = make_engine(), make_engine()
        txn = a.begin(1)
        a.write_row(txn, "t", 1, {"v": "x"})
        a.prepare(txn)
        a.commit(txn)
        assert a.checksum() != b.checksum()

    def test_checksum_ignores_in_flight(self):
        engine = make_engine()
        before = engine.checksum()
        txn = engine.begin(1)
        engine.write_row(txn, "t", 1, {"v": "x"})
        assert engine.checksum() == before


class TestDirtyTracking:
    """Per-table (pk -> commit_seq) watermarks feeding delta snapshots."""

    def commit(self, engine, xid, index, writes=(), deletes=()):
        txn = engine.begin(xid)
        for table, pk, row in writes:
            engine.write_row(txn, table, pk, row)
        for table, pk in deletes:
            engine.delete_row(txn, table, pk)
        engine.prepare(txn)
        txn.opid = OpId(1, index)
        engine.commit(txn)

    def test_changed_since_returns_upserts_and_deletes(self):
        engine = make_engine()
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"}), ("t", 2, {"v": "b"})])
        self.commit(engine, 2, 20, writes=[("t", 2, {"v": "c"})])
        self.commit(engine, 3, 30, deletes=[("t", 1)])
        changed = engine.changed_since(10)
        assert changed == {"t": {2: {"v": "c"}, 1: None}}

    def test_changed_since_full_base_is_empty(self):
        engine = make_engine()
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"})])
        assert engine.changed_since(10) == {}

    def test_commit_without_opid_poisons_tracking(self):
        engine = make_engine()
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"})])
        txn = engine.begin(2)
        engine.write_row(txn, "t", 2, {"v": "b"})
        engine.prepare(txn)
        engine.commit(txn)  # no opid: provenance unknown
        assert engine.changed_since(5) is None

    def test_prune_raises_floor_and_blocks_older_bases(self):
        engine = make_engine()
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"})])
        self.commit(engine, 2, 20, writes=[("t", 2, {"v": "b"})])
        dropped = engine.prune_dirty(10)
        assert dropped == 1
        assert engine.dirty_floor == 10
        assert engine.changed_since(5) is None  # base below the floor
        assert engine.changed_since(10) == {"t": {2: {"v": "b"}}}

    def test_changed_since_copies_rows(self):
        engine = make_engine()
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"})])
        changed = engine.changed_since(0)
        changed["t"][1]["v"] = "mutated"
        assert engine.table("t").get(1) == {"v": "a"}

    def test_dirty_state_survives_restart(self):
        durable_tables, durable_meta = {}, {}
        engine = StorageEngine(durable_tables, durable_meta)
        self.commit(engine, 1, 10, writes=[("t", 1, {"v": "a"})])
        recovered = StorageEngine(durable_tables, durable_meta)
        assert recovered.changed_since(0) == {"t": {1: {"v": "a"}}}


class TestRowImagesAreOwned:
    """A primary's binlog payload carries its RowChange images, and the
    decode table hands that very transaction to every member that stores
    or applies the bytes. So no image may alias a dict that a caller, a
    table or a later change can write to."""

    def test_no_image_aliases_a_caller_a_table_or_another_change(self):
        engine = make_engine()
        row = {"id": 1, "v": "a"}
        setup = engine.begin(1)
        written = engine.write_row(setup, "t", 1, row)
        engine.prepare(setup)
        engine.commit(setup)
        row["v"] = "caller wrote"
        stored = engine.table("t").rows[1]
        assert written.after == {"id": 1, "v": "a"} and stored is not written.after
        stored["v"] = "table wrote"
        assert written.after == {"id": 1, "v": "a"}

        txn = engine.begin(2)
        updated = engine.write_row(txn, "t", 1, {"id": 1, "v": "b"})
        assert updated.before == {"id": 1, "v": "table wrote"} and updated.before is not stored
        rewritten = engine.write_row(txn, "t", 1, {"id": 1, "v": "c"})
        assert rewritten.before == updated.after and rewritten.before is not updated.after
        deleted = engine.delete_row(txn, "t", 1)
        assert deleted.before == rewritten.after and deleted.before is not rewritten.after
        engine.prepare(txn)
        engine.commit(txn)
        assert updated.after == {"id": 1, "v": "b"} and rewritten.after == {"id": 1, "v": "c"}

    def test_an_applied_image_is_copied_into_the_replica(self):
        # The applier hands write_row the shared image itself; the engine
        # copies it, so the replica's row never aliases the payload.
        engine = make_engine()
        shared = {"id": 3, "v": "from the payload"}
        txn = engine.begin(1)
        change = engine.write_row(txn, "t", 3, shared)
        engine.prepare(txn)
        engine.commit(txn)
        assert change.after is not shared and engine.table("t").rows[3] is not shared
        engine.table("t").rows[3]["v"] = "replica wrote"
        assert shared == {"id": 3, "v": "from the payload"}

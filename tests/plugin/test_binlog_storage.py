"""BinlogRaftLogStorage: the log abstraction specialized to binlogs."""

import pytest

from repro.errors import BinlogCorruptionError, LogTruncatedError, RaftError
from repro.mysql.events import (
    ConfigChangeEvent,
    GtidEvent,
    NoOpEvent,
    QueryEvent,
    RotateEvent,
    RowsEvent,
    TableMapEvent,
    Transaction,
    XidEvent,
    decode_event,
)
from repro.mysql.gtid import Gtid, GtidSet
from repro.mysql.log_manager import MySQLLogManager
from repro.plugin.binlog_storage import BinlogRaftLogStorage
from repro.raft.log_storage import (
    ENTRY_KIND_CONFIG,
    ENTRY_KIND_DATA,
    ENTRY_KIND_NOOP,
    ENTRY_KIND_ROTATE,
    LogEntry,
)
from repro.raft.types import OpId

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"


def data_entry(index, term=1, txn_id=None):
    txn = Transaction(
        events=(
            GtidEvent(UUID, txn_id or index, OpId(term, index)),
            QueryEvent("BEGIN"),
            TableMapEvent(1, "db", "t"),
            RowsEvent("write", 1, ((None, {"id": index}),)),
            XidEvent(index),
        )
    )
    return LogEntry(OpId(term, index), txn.encode(), ENTRY_KIND_DATA)


def noop_entry(index, term, leader="n1"):
    txn = Transaction(events=(NoOpEvent(leader, OpId(term, index)),))
    return LogEntry(OpId(term, index), txn.encode(), ENTRY_KIND_NOOP)


def rotate_entry(index, term=1):
    txn = Transaction(events=(RotateEvent("next", OpId(term, index)),))
    return LogEntry(OpId(term, index), txn.encode(), ENTRY_KIND_ROTATE)


def config_entry(index, term, members):
    txn = Transaction(events=(ConfigChangeEvent("add", "x", members, OpId(term, index)),))
    return LogEntry(OpId(term, index), txn.encode(), ENTRY_KIND_CONFIG, members)


@pytest.fixture
def storage():
    return BinlogRaftLogStorage(MySQLLogManager({}))


class TestAppendAndRead:
    def test_roundtrip(self, storage):
        entry = data_entry(1)
        storage.append([entry])
        read = storage.entry(1)
        assert read.opid == entry.opid
        assert read.payload == entry.payload
        assert read.kind == ENTRY_KIND_DATA
        assert storage.last_opid() == OpId(1, 1)
        assert storage.opid_at(1) == OpId(1, 1)

    def test_append_gap_rejected(self, storage):
        storage.append([data_entry(1)])
        with pytest.raises(RaftError):
            storage.append([data_entry(3)])

    def test_opid_mismatch_rejected(self, storage):
        txn = Transaction(events=(NoOpEvent("n1", OpId(2, 2)),))
        bad = LogEntry(OpId(1, 1), txn.encode(), ENTRY_KIND_NOOP)
        with pytest.raises(RaftError):
            storage.append([bad])

    def test_opid_mismatch_rejected_for_an_already_decoded_payload(self, storage):
        # The decode table is keyed by payload content only; the OpId
        # check against the entry must still run on a hit.
        good = data_entry(1)
        BinlogRaftLogStorage(MySQLLogManager({})).append([good])  # another member decoded it
        with pytest.raises(RaftError):
            storage.append([LogEntry(OpId(2, 1), good.payload, ENTRY_KIND_DATA)])
        assert storage.last_opid() == OpId.zero()

    def test_corrupted_copy_of_an_already_decoded_payload_is_rejected(self, storage):
        good = data_entry(1)
        BinlogRaftLogStorage(MySQLLogManager({})).append([good])
        torn = bytearray(good.payload)
        torn[-6] ^= 0x40  # inside the last event's body, past the framing event
        with pytest.raises(BinlogCorruptionError):
            storage.append([LogEntry(good.opid, bytes(torn), ENTRY_KIND_DATA)])
        assert storage.last_opid() == OpId.zero()

    def test_torn_body_behind_a_valid_framing_event_is_rejected_at_append(self, storage):
        # Never decoded in this process: the framing event alone parses
        # and carries the right OpId, the Xid event behind it is torn.
        # Append validates the whole payload, so it raises here rather
        # than storing the entry and failing on a later read.
        whole = data_entry(2, txn_id=987_654).payload
        torn = bytearray(whole)
        torn[-6] ^= 0x40
        framing, _end = decode_event(bytes(torn), 0)
        assert framing.opid == OpId(1, 2)
        storage.append([data_entry(1)])
        with pytest.raises(BinlogCorruptionError):
            storage.append([LogEntry(OpId(1, 2), bytes(torn), ENTRY_KIND_DATA)])
        assert storage.last_opid() == OpId(1, 1) and storage.entry(2) is None
        assert storage.log_manager.log_gtids.count() == 1
        storage.append([LogEntry(OpId(1, 2), whole, ENTRY_KIND_DATA)])  # the intact copy still lands
        assert storage.entry(2).payload == whole

    def test_append_does_not_count_as_a_transaction_decode(self, storage, monkeypatch):
        # benchmarks/e2e counts Transaction.decode calls per transaction;
        # storage's framing lookup shares the table, not that entry point.
        calls = []
        original = Transaction.__dict__["decode"].__func__
        monkeypatch.setattr(
            Transaction, "decode",
            classmethod(lambda cls, data: calls.append(1) or original(cls, data)),
        )
        storage.append([data_entry(1), noop_entry(2, 1)])
        assert storage.entry(2).kind == ENTRY_KIND_NOOP
        assert calls == []

    def test_rotate_entry_rotates_underlying_file(self, storage):
        storage.append([data_entry(1), rotate_entry(2), data_entry(3)])
        assert storage.log_manager.last_sequence() == 2
        # Reads span file boundaries transparently.
        assert storage.entry(3).opid == OpId(1, 3)

    def test_read_range_respects_limits(self, storage):
        storage.append([data_entry(i) for i in range(1, 10)])
        entries = storage.read_range(3, max_entries=4, max_bytes=1 << 20)
        assert [e.opid.index for e in entries] == [3, 4, 5, 6]

    def test_term_at(self, storage):
        storage.append([data_entry(1, term=1), noop_entry(2, term=3)])
        assert storage.term_at(0) == 0
        assert storage.term_at(1) == 1
        assert storage.term_at(2) == 3
        assert storage.term_at(5) is None


class TestRebuild:
    def test_index_rebuilds_from_file_bytes(self):
        durable = {}
        mgr = MySQLLogManager(durable)
        storage = BinlogRaftLogStorage(mgr)
        storage.append([data_entry(1), rotate_entry(2), data_entry(3)])
        # Crash: new manager + storage over the same durable dict.
        recovered = BinlogRaftLogStorage(MySQLLogManager(durable))
        assert recovered.last_opid() == OpId(1, 3)
        assert recovered.entry(1).kind == ENTRY_KIND_DATA
        assert recovered.entry(2).kind == ENTRY_KIND_ROTATE
        assert recovered.first_index() == 1

    def test_config_metadata_rebuilt(self):
        durable = {}
        storage = BinlogRaftLogStorage(MySQLLogManager(durable))
        members = (("n1", "r1", "voter", True), ("n2", "r1", "voter", False))
        storage.append([config_entry(1, 1, members)])
        recovered = BinlogRaftLogStorage(MySQLLogManager(durable))
        assert recovered.entry(1).metadata == members


class TestTruncation:
    def test_truncate_returns_removed_and_strips_gtids(self, storage):
        storage.append([data_entry(i) for i in range(1, 5)])
        assert Gtid(UUID, 3) in storage.log_manager.log_gtids
        removed = storage.truncate_from(3)
        assert [e.opid.index for e in removed] == [3, 4]
        assert storage.last_opid() == OpId(1, 2)
        assert Gtid(UUID, 3) not in storage.log_manager.log_gtids
        assert Gtid(UUID, 2) in storage.log_manager.log_gtids

    def test_truncate_across_file_boundary(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), data_entry(4)])
        removed = storage.truncate_from(2)
        assert [e.opid.index for e in removed] == [2, 3, 4]
        assert storage.last_opid() == OpId(1, 1)
        # Appends continue cleanly after a cross-file truncation.
        storage.append([noop_entry(2, term=2)])
        assert storage.entry(2).kind == ENTRY_KIND_NOOP

    def test_truncate_nothing(self, storage):
        storage.append([data_entry(1)])
        assert storage.truncate_from(5) == []


class TestPurging:
    def test_purge_whole_files_below_horizon(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), rotate_entry(4)])
        storage.append([data_entry(5)])
        purged = storage.purge_files_below(horizon_index=5)
        assert len(purged) == 2
        assert storage.first_index() == 5
        with pytest.raises(LogTruncatedError):
            storage.entry(1)
        assert storage.entry(5) is not None

    def test_purge_refuses_entries_above_horizon(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3)])
        purged = storage.purge_files_below(horizon_index=2)
        assert purged == []  # file 1 contains index 2 == horizon

    def test_never_purges_current_file(self, storage):
        storage.append([data_entry(1)])
        assert storage.purge_files_below(horizon_index=100) == []

    def test_truncating_everything_left_after_a_purge_matches_recovery(self):
        durable = {}
        storage = BinlogRaftLogStorage(MySQLLogManager(durable))
        storage.append([data_entry(1), data_entry(2), data_entry(3), rotate_entry(4)])
        storage.append([data_entry(5), data_entry(6)])
        assert storage.purge_files_below(5) != []
        storage.truncate_from(storage.first_index())
        recovered = BinlogRaftLogStorage(MySQLLogManager(durable))
        assert (storage.first_index(), storage.last_opid()) == (
            recovered.first_index(),
            recovered.last_opid(),
        )
        storage.append([data_entry(1, term=2)])  # the emptied log takes index 1 again
        assert storage.first_index() == 1


class TestIndexedMaintenance:
    """The per-file index spans."""

    def test_file_ranges_track_appends_and_rotation(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), data_entry(4)])
        ranges = sorted(storage.file_ranges().values())
        assert ranges == [(1, 2), (3, 4)]

    def test_file_ranges_survive_rebuild(self, storage):
        storage.append([data_entry(1), rotate_entry(2), data_entry(3)])
        before = storage.file_ranges()
        rebuilt = BinlogRaftLogStorage(storage.log_manager)
        assert rebuilt.file_ranges() == before

    def test_truncate_updates_ranges(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), data_entry(4), data_entry(5)])
        storage.truncate_from(4)
        assert sorted(storage.file_ranges().values()) == [(1, 2), (3, 3)]
        assert storage.last_opid() == OpId(1, 3)
        # Truncating a whole trailing file drops its range entry.
        storage.truncate_from(3)
        assert sorted(storage.file_ranges().values()) == [(1, 2)]

    def test_purge_drops_ranges(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3)])
        purged = storage.purge_files_below(horizon_index=3)
        assert len(purged) == 1
        assert sorted(storage.file_ranges().values()) == [(3, 3)]

    def test_reads_return_the_appended_payload_object(self, storage):
        entries = [data_entry(1), rotate_entry(2), data_entry(3)]
        storage.append(entries)
        for entry in entries:
            assert storage.entry(entry.opid.index).payload is entry.payload

    def test_truncate_strips_gtid_without_decoding(self, storage, monkeypatch):
        from repro.mysql import events

        storage.append([data_entry(1, txn_id=11), data_entry(2, txn_id=12)])
        assert storage.gtid_at(2) == Gtid(UUID, 12)
        parses = []
        real = events.decode_stream
        monkeypatch.setattr(events, "decode_stream", lambda *a: parses.append(1) or real(*a))
        storage.truncate_from(2)
        assert parses == []
        assert not storage.log_manager.log_gtids.contains(Gtid(UUID, 12))
        assert storage.log_manager.log_gtids.contains(Gtid(UUID, 11))


def torn_copy(entry, position=-6):
    data = bytearray(entry.payload)
    data[position] ^= 0x40
    return LogEntry(entry.opid, bytes(data), entry.kind, entry.metadata)


class TestEncodedPayloadsStayValidated:
    """``Transaction.encode`` enters its bytes in the decode table, so an
    encoded payload is stored without a parse; any corrupted copy of it
    differs from every key and still takes the full validating decode."""

    @pytest.mark.parametrize("make", [
        lambda: data_entry(1, txn_id=31_337),
        lambda: noop_entry(1, term=4, leader="encoded-here"),
        lambda: config_entry(1, 2, (("n1", "r1", "voter", True), ("n9", "r2", "learner", True))),
    ], ids=["data", "noop", "config"])
    def test_every_one_byte_corruption_of_encoded_bytes_is_rejected_at_append(self, storage, make):
        good = make()
        for position in range(len(good.payload)):
            torn = bytearray(good.payload)
            torn[position] ^= 0x01
            with pytest.raises(BinlogCorruptionError):
                storage.append([LogEntry(good.opid, bytes(torn), good.kind, good.metadata)])
            assert storage.last_opid() == OpId.zero()
        assert storage.log_manager.log_gtids.is_empty()
        storage.append([good])
        assert storage.entry(1).payload == good.payload


class TestPartialWindow:
    """An append records each file's index range once per run of entries,
    not per entry; a window that raises part-way must still leave the
    entries ahead of the failure fully recorded."""

    def test_entries_ahead_of_a_torn_one_stay_appended(self, storage):
        entries = [data_entry(1), data_entry(2), rotate_entry(3), data_entry(4),
                   data_entry(5), data_entry(6), data_entry(7)]
        window = entries[:5] + [torn_copy(entries[5])] + entries[6:]
        with pytest.raises(BinlogCorruptionError):
            storage.append(window)
        assert storage.last_opid() == OpId(1, 5)
        assert [storage.entry(i).payload for i in range(1, 6)] == [e.payload for e in entries[:5]]
        assert storage.entry(6) is None
        assert sorted(storage.file_ranges().values()) == [(1, 3), (4, 5)]
        assert storage.log_manager.log_gtids == GtidSet.parse(f"{UUID}:1-2:4-5")
        # What the window recorded is what a scan of the files rebuilds.
        rebuilt = BinlogRaftLogStorage(storage.log_manager)
        assert rebuilt.file_ranges() == storage.file_ranges()
        assert [rebuilt.opid_at(i) for i in range(1, 6)] == [e.opid for e in entries[:5]]

        # Maintenance treats them as appended: truncation strips entry 5
        # and its GTID, and the purge drops the first file whole.
        assert [e.opid.index for e in storage.truncate_from(5)] == [5]
        assert sorted(storage.file_ranges().values()) == [(1, 3), (4, 4)]
        assert Gtid(UUID, 5) not in storage.log_manager.log_gtids
        assert storage.purge_files_below(horizon_index=4) == ["binary-logs-000001"]
        assert storage.first_index() == 4
        assert storage.log_manager.log_gtids == GtidSet.parse(f"{UUID}:1-2:4")

        storage.append(entries[4:])  # the intact copies land behind them
        assert storage.last_opid() == OpId(1, 7)
        assert sorted(storage.file_ranges().values()) == [(4, 7)]

    def test_a_gap_part_way_through_a_window_keeps_the_run_ahead_of_it(self, storage):
        storage.append([data_entry(1)])
        with pytest.raises(RaftError):
            storage.append([data_entry(2), rotate_entry(3), data_entry(4), data_entry(6)])
        assert storage.last_opid() == OpId(1, 4)
        assert sorted(storage.file_ranges().values()) == [(1, 3), (4, 4)]
        assert BinlogRaftLogStorage(storage.log_manager).file_ranges() == storage.file_ranges()


class TestOneParsePerPayload:
    """Counter pin: on a 3-member ring (primary, replica, logtailer) no
    member parses a payload the leader encoded — not the leader's own
    storage append, not its followers', not the replica's applier."""

    def test_leader_encoded_payloads_are_never_parsed(self, monkeypatch):
        from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
        from repro.mysql import events

        spec = ReplicaSetSpec("rs-parse", (RegionSpec("region0", databases=2, logtailers=1),))
        cluster = MyRaftReplicaset(spec, seed=5)
        cluster.bootstrap()
        parses = []
        real = events.decode_stream
        monkeypatch.setattr(events, "decode_stream", lambda *a: parses.append(1) or real(*a))
        writes = 12
        for pk in range(1, writes + 1):
            cluster.write("t", {pk: {"id": pk, "v": f"row{pk}"}})
            cluster.run(0.05)
        cluster.run(1.0)
        replica = cluster.server("region0-db2")
        assert replica.mysql.engine.table("t").get(writes) == {"id": writes, "v": f"row{writes}"}
        assert len(cluster.services) == 3
        for service in cluster.services.values():
            assert service.node.storage.log_manager.log_gtids.count() >= writes
        assert parses == []

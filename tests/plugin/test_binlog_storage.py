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
from repro.mysql.gtid import Gtid
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


class TestIndexedMaintenance:
    """The per-file index-range map and the bounded payload memo."""

    def test_file_ranges_track_appends_and_rotation(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), data_entry(4)])
        ranges = sorted(storage._file_ranges.values())
        assert ranges == [(1, 2), (3, 4)]

    def test_file_ranges_survive_rebuild(self, storage):
        storage.append([data_entry(1), rotate_entry(2), data_entry(3)])
        before = dict(storage._file_ranges)
        rebuilt = BinlogRaftLogStorage(storage.log_manager)
        assert rebuilt._file_ranges == before

    def test_truncate_updates_ranges(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3), data_entry(4), data_entry(5)])
        storage.truncate_from(4)
        assert sorted(storage._file_ranges.values()) == [(1, 2), (3, 3)]
        assert storage.last_opid() == OpId(1, 3)
        # Truncating a whole trailing file drops its range entry.
        storage.truncate_from(3)
        assert sorted(storage._file_ranges.values()) == [(1, 2)]

    def test_purge_drops_ranges_and_memo(self, storage):
        storage.append([data_entry(1), rotate_entry(2)])
        storage.append([data_entry(3)])
        storage.entry(1)  # populate the payload memo
        assert 1 in storage._payload_memo
        purged = storage.purge_files_below(horizon_index=3)
        assert len(purged) == 1
        assert 1 not in storage._payload_memo
        assert sorted(storage._file_ranges.values()) == [(3, 3)]

    def test_payload_memo_serves_repeat_reads_without_file_io(self, storage):
        storage.append([data_entry(1), data_entry(2)])
        mgr = storage.log_manager
        baseline = mgr.read_calls
        storage.entry(1)
        assert mgr.read_calls == baseline + 1
        for _ in range(5):
            assert storage.entry(1).opid == OpId(1, 1)
        assert mgr.read_calls == baseline + 1  # memo hit, no re-parse

    def test_payload_memo_is_bounded(self, storage):
        from repro.plugin import binlog_storage as mod

        entries = [data_entry(i) for i in range(1, 12)]
        storage.append(entries)
        old = mod._PAYLOAD_MEMO_ENTRIES
        mod._PAYLOAD_MEMO_ENTRIES = 4
        try:
            for i in range(1, 12):
                storage.entry(i)
            assert len(storage._payload_memo) <= 4
        finally:
            mod._PAYLOAD_MEMO_ENTRIES = old

    def test_truncate_strips_gtid_without_decoding(self, storage):
        storage.append([data_entry(1, txn_id=11), data_entry(2, txn_id=12)])
        assert storage._records[2].gtid == Gtid(UUID, 12)
        storage.truncate_from(2)
        assert not storage.log_manager.log_gtids.contains(Gtid(UUID, 12))
        assert storage.log_manager.log_gtids.contains(Gtid(UUID, 11))

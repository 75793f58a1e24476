"""Binlog event codec tests: roundtrips, corruption detection, grouping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BinlogCorruptionError, BinlogError
from repro.mysql.events import (
    ConfigChangeEvent,
    FormatDescriptionEvent,
    GtidEvent,
    NoOpEvent,
    PreviousGtidsEvent,
    QueryEvent,
    RotateEvent,
    RowsEvent,
    TableMapEvent,
    Transaction,
    XidEvent,
    decode_event,
    decode_stream,
    encode_events,
    framing_event,
    group_into_transactions,
)
from repro.raft.types import OpId

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"

SAMPLE_EVENTS = [
    FormatDescriptionEvent("v1"),
    PreviousGtidsEvent(f"{UUID}:1-5"),
    GtidEvent(UUID, 6, OpId(3, 17)),
    QueryEvent("BEGIN"),
    TableMapEvent(1, "db", "users"),
    RowsEvent("write", 1, ((None, {"id": 1, "name": "ann"}),)),
    RowsEvent("update", 1, (({"id": 1, "name": "ann"}, {"id": 1, "name": "bob"}),)),
    RowsEvent("delete", 1, (({"id": 1, "name": "bob"}, None),)),
    XidEvent(42),
    RotateEvent("binary-logs-000002", OpId(3, 18)),
    NoOpEvent("host1", OpId(4, 19)),
    ConfigChangeEvent("add", "host9", (("host1", "r1", "voter", True),), OpId(4, 20)),
]


class TestEventRoundtrip:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: type(e).__name__)
    def test_encode_decode_roundtrip(self, event):
        decoded, consumed = decode_event(event.encode())
        assert decoded == event
        assert consumed == len(event.encode())

    def test_stream_roundtrip(self):
        data = encode_events(SAMPLE_EVENTS)
        assert list(decode_stream(data)) == SAMPLE_EVENTS

    def test_decode_at_offset(self):
        first, second = SAMPLE_EVENTS[0], SAMPLE_EVENTS[2]
        data = first.encode() + second.encode()
        decoded, _ = decode_event(data, offset=len(first.encode()))
        assert decoded == second

    def test_wire_size_matches_encoding(self):
        for event in SAMPLE_EVENTS:
            assert event.wire_size == len(event.encode())

    def test_opid_none_roundtrip(self):
        event = GtidEvent(UUID, 1, None)
        decoded, _ = decode_event(event.encode())
        assert decoded.opid is None


class TestCorruption:
    def test_flipped_byte_fails_checksum(self):
        data = bytearray(GtidEvent(UUID, 1, OpId(1, 1)).encode())
        data[7] ^= 0xFF
        with pytest.raises(BinlogCorruptionError):
            decode_event(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(BinlogCorruptionError):
            decode_event(b"\x01\x00")

    def test_truncated_payload(self):
        data = QueryEvent("BEGIN").encode()
        with pytest.raises(BinlogCorruptionError):
            decode_event(data[:-3])

    def test_unknown_type_code(self):
        import struct
        import zlib

        payload = b"{}"
        header = struct.pack("<BI", 200, len(payload))
        frame = header + payload + struct.pack("<I", zlib.crc32(header + payload))
        with pytest.raises(BinlogCorruptionError):
            decode_event(frame)

    def test_invalid_rows_kind(self):
        with pytest.raises(BinlogError):
            RowsEvent("upsert", 1, ())


class TestTransaction:
    def make_txn(self, txn_id=1, opid=None):
        return Transaction(
            events=(
                GtidEvent(UUID, txn_id, opid),
                QueryEvent("BEGIN"),
                TableMapEvent(1, "db", "t"),
                RowsEvent("write", 1, ((None, {"id": txn_id}),)),
                XidEvent(txn_id),
            )
        )

    def test_roundtrip(self):
        txn = self.make_txn(opid=OpId(2, 9))
        assert Transaction.decode(txn.encode()) == txn

    def test_with_opid_stamps_gtid_event(self):
        txn = self.make_txn()
        stamped = txn.with_opid(OpId(5, 100))
        assert stamped.opid == OpId(5, 100)
        assert stamped.gtid_event.txn_id == 1
        assert txn.opid is None  # original untouched

    def test_with_opid_stamps_noop(self):
        txn = Transaction(events=(NoOpEvent("h1", None),))
        assert txn.with_opid(OpId(1, 1)).opid == OpId(1, 1)
        assert not txn.is_data

    def test_empty_transaction_rejected(self):
        with pytest.raises(BinlogError):
            Transaction(events=())

    def test_must_start_with_framing_event(self):
        with pytest.raises(BinlogError):
            Transaction(events=(QueryEvent("BEGIN"),))

    def test_is_data(self):
        assert self.make_txn().is_data
        assert not Transaction(events=(RotateEvent("f", None),)).is_data


class TestGrouping:
    def test_groups_data_and_control(self):
        txn = TestTransaction().make_txn(txn_id=1)
        events = (
            [FormatDescriptionEvent(), PreviousGtidsEvent("")]
            + list(txn.events)
            + [NoOpEvent("h1", OpId(1, 2))]
            + list(TestTransaction().make_txn(txn_id=2).events)
        )
        groups = group_into_transactions(events)
        assert len(groups) == 3
        assert groups[0].gtid_event.txn_id == 1
        assert isinstance(groups[1].events[0], NoOpEvent)
        assert groups[2].gtid_event.txn_id == 2

    def test_trailing_partial_rejected(self):
        events = [GtidEvent(UUID, 1, None), QueryEvent("BEGIN")]
        with pytest.raises(BinlogError):
            group_into_transactions(events)

    def test_control_event_inside_txn_rejected(self):
        events = [GtidEvent(UUID, 1, None), NoOpEvent("h", None)]
        with pytest.raises(BinlogError):
            group_into_transactions(events)


row_values = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.text(max_size=12), st.none()),
    max_size=4,
)


@given(
    txn_id=st.integers(min_value=1, max_value=10**9),
    term=st.integers(min_value=0, max_value=1000),
    index=st.integers(min_value=0, max_value=10**9),
    row=row_values,
    xid=st.integers(min_value=0, max_value=10**12),
)
def test_transaction_roundtrip_property(txn_id, term, index, row, xid):
    txn = Transaction(
        events=(
            GtidEvent(UUID, txn_id, OpId(term, index)),
            QueryEvent("BEGIN"),
            TableMapEvent(7, "db", "t"),
            RowsEvent("write", 7, ((None, row),)),
            XidEvent(xid),
        )
    )
    assert Transaction.decode(txn.encode()) == txn


class TestEncodeCache:
    """Transaction.encode memoization: encode once, invalidate by
    construction (stamping builds a new Transaction)."""

    def make_txn(self, txn_id=1, opid=None):
        return Transaction(
            events=(
                GtidEvent(UUID, txn_id, opid),
                QueryEvent("BEGIN"),
                TableMapEvent(1, "db", "t"),
                RowsEvent("write", 1, ((None, {"id": txn_id}),)),
                XidEvent(txn_id),
            )
        )

    def test_encode_returns_same_object(self):
        txn = self.make_txn()
        assert txn.encode() is txn.encode()

    def test_cached_bytes_match_fresh_encoding(self):
        txn = self.make_txn(opid=OpId(2, 9))
        assert txn.encode() == encode_events(list(txn.events))

    def test_decode_seeds_cache_with_input_bytes(self):
        data = self.make_txn(opid=OpId(1, 4)).encode()
        decoded = Transaction.decode(data)
        assert decoded.encode() == data
        assert decoded.encode() is decoded.encode()

    def test_equal_bytes_decode_to_one_transaction(self):
        data = self.make_txn(opid=OpId(1, 5)).encode()
        first = Transaction.decode(data)
        # Keyed on content: another bytes object (as read back from a
        # log file) and another view of it both hit.
        assert Transaction.decode(bytes(bytearray(data))) is first
        assert Transaction.decode(memoryview(data)) is first
        assert framing_event(data) is first.events[0]
        assert Transaction.peek_opid(data) == OpId(1, 5)

    def test_every_one_byte_corruption_of_a_cached_payload_is_detected(self):
        data = self.make_txn(opid=OpId(1, 6)).encode()
        cached = Transaction.decode(data)
        for position in range(len(data)):
            torn = bytearray(data)
            torn[position] ^= 0x01
            for parse in (Transaction.decode, framing_event, Transaction.peek_opid):
                with pytest.raises(BinlogCorruptionError):
                    parse(bytes(torn))
        with pytest.raises(BinlogCorruptionError):
            Transaction.decode(data[:-1])
        assert Transaction.decode(data) is cached  # failures entered nothing

    def test_decode_table_is_bounded_and_evicts_oldest_first(self):
        from repro.mysql import events

        oldest = self.make_txn(txn_id=10_000, opid=OpId(7, 1)).encode()
        first = Transaction.decode(oldest)
        for txn_id in range(10_001, 10_001 + events._INTERN_MAX + 50):
            Transaction.decode(self.make_txn(txn_id=txn_id, opid=OpId(7, 1)).encode())
            assert len(events._interned) <= events._INTERN_MAX
        assert len(events._interned) == events._INTERN_MAX
        again = Transaction.decode(oldest)  # evicted: parsed afresh
        assert again is not first and again == first

    def test_codec_is_canonical(self):
        # The decode-side cache is only sound if re-encoding the decoded
        # events reproduces the input bytes exactly; check it without
        # going through the cache.
        data = self.make_txn(opid=OpId(3, 12)).encode()
        assert encode_events(list(Transaction.decode(data).events)) == data

    def test_with_opid_does_not_reuse_stale_bytes(self):
        txn = self.make_txn()
        before = txn.encode()
        stamped = txn.with_opid(OpId(9, 99))
        assert stamped.encode() != before
        assert Transaction.decode(stamped.encode()).opid == OpId(9, 99)
        assert txn.encode() is before  # original's cache untouched

    def test_with_commit_meta_does_not_reuse_stale_bytes(self):
        txn = self.make_txn()
        before = txn.encode()
        stamped = txn.with_commit_meta(
            OpId(5, 50), last_committed=4, sequence_number=5, writeset=("t:1",)
        )
        assert stamped.encode() != before
        restamped = Transaction.decode(stamped.encode())
        assert restamped.gtid_event.sequence_number == 5
        assert restamped.gtid_event.writeset == ("t:1",)

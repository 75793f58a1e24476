"""Unit tests for semi-sync wire messages and ship-log receive logic."""

import pytest

from repro.errors import MySQLError
from repro.mysql.events import GtidEvent, QueryEvent, Transaction, XidEvent
from repro.mysql.log_manager import MySQLLogManager
from repro.plugin.binlog_storage import BinlogRaftLogStorage
from repro.raft.types import OpId
from repro.semisync.messages import ShipAck, ShipEntries
from repro.semisync.server import _ShipLog

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"


def payload(seq, generation=1, txn_id=None):
    txn = Transaction(
        events=(
            GtidEvent(UUID, txn_id or seq, OpId(generation, seq)),
            QueryEvent("BEGIN"),
            XidEvent(seq),
        )
    )
    return txn.encode()


def make_ship_log():
    return _ShipLog(BinlogRaftLogStorage(MySQLLogManager({}, persona="relay")))


class TestShipEntries:
    def test_wire_size_scales_with_payload(self):
        small = ShipEntries(1, 0, ((1, b"x" * 10),), "p")
        large = ShipEntries(1, 0, ((1, b"x" * 1000),), "p")
        assert large.wire_size - small.wire_size == 990

    def test_last_seq(self):
        ship = ShipEntries(1, 4, ((5, b"a"), (6, b"b")), "p")
        assert ship.last_seq() == 6
        assert ShipEntries(1, 9, (), "p").last_seq() == 9


class TestShipLogReceive:
    def test_in_order_appends(self):
        log = make_ship_log()
        last, appended = log.receive(ShipEntries(1, 0, ((1, payload(1)), (2, payload(2))), "p"))
        assert last == 2 and appended
        assert log.storage.last_opid() == OpId(1, 2)

    def test_gap_raises(self):
        log = make_ship_log()
        with pytest.raises(MySQLError, match="gap"):
            log.receive(ShipEntries(1, 5, ((6, payload(6)),), "p"))

    def test_duplicates_skipped(self):
        log = make_ship_log()
        ship = ShipEntries(1, 0, ((1, payload(1)),), "p")
        log.receive(ship)
        last, appended = log.receive(ship)
        assert last == 1 and not appended
        assert log.storage.last_opid() == OpId(1, 1)

    def test_higher_generation_truncates_diverged_tail(self):
        log = make_ship_log()
        log.receive(ShipEntries(1, 0, ((1, payload(1)), (2, payload(2, txn_id=200))), "old"))
        # A new primary (generation 2) ships a different entry 2.
        last, appended = log.receive(
            ShipEntries(2, 1, ((2, payload(2, generation=2, txn_id=900)),), "new")
        )
        assert last == 2 and appended
        assert log.storage.opid_at(2) == OpId(2, 2)

    def test_lower_generation_ignored(self):
        log = make_ship_log()
        log.receive(ShipEntries(2, 0, ((1, payload(1, generation=2)),), "new"))
        last, appended = log.receive(
            ShipEntries(1, 0, ((1, payload(1, generation=1, txn_id=7)),), "stale")
        )
        assert not appended
        assert log.storage.opid_at(1) == OpId(2, 1)


class TestAckMessage:
    def test_fields(self):
        ack = ShipAck(generation=2, acked_seq=9, acker="lt1")
        assert ack.acked_seq == 9
        assert ack.wire_size > 0

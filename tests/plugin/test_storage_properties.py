"""Property tests: shared payload storage keeps the byte stream and recovery.

Files hold each transaction's ``bytes`` object instead of a private
buffer. A file's byte stream, checksum and parsed transactions must be
what a ``bytearray`` file of the same operations gives, and a storage
rebuilt from those bytes after a crash must answer every index query as
the live one did.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

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
    decode_stream,
    group_into_transactions,
)
from repro.mysql.log_manager import MySQLLogManager
from repro.plugin.binlog_storage import BinlogRaftLogStorage
from repro.raft.log_storage import LogEntry
from repro.raft.types import OpId

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"


def data_txn(txn_id, opid, value_bytes):
    return Transaction(
        events=(
            GtidEvent(UUID, txn_id, opid),
            QueryEvent("BEGIN"),
            TableMapEvent(1, "db", "t"),
            RowsEvent("write", 1, ((None, {"id": txn_id, "v": "x" * value_bytes}),)),
            XidEvent(txn_id),
        )
    )


class ReferenceFile:
    """The pre-sharing file layout: one growing buffer and the (offset,
    length) of each transaction in it."""

    def __init__(self, previous_gtids):
        self.buffer = bytearray(
            FormatDescriptionEvent().encode() + PreviousGtidsEvent(previous_gtids).encode()
        )
        self.ranges = []

    def append(self, data):
        self.ranges.append((len(self.buffer), len(data)))
        self.buffer.extend(data)

    def truncate(self, keep):
        if keep < len(self.ranges):
            del self.buffer[self.ranges[keep][0]:]
            del self.ranges[keep:]


file_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 300)),
        st.tuples(st.just("truncate"), st.integers(0, 4)),
        st.tuples(st.just("rotate"), st.just(0)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(file_ops)
def test_file_bytes_match_a_buffer_model_of_the_same_operations(ops):
    mgr = MySQLLogManager({})
    model = {mgr.current_file.name: ReferenceFile("")}
    txn_id = 0
    for op, arg in ops:
        current = model[mgr.current_file.name]
        if op == "append":
            txn_id += 1
            data = data_txn(txn_id, OpId(1, txn_id), arg).encode()
            mgr.append_encoded(mgr.current_file, data, None, False)
            current.append(data)
        elif op == "truncate":
            keep = max(0, mgr.current_file.transaction_count - arg)
            mgr.truncate_tail_transactions(keep)
            current.truncate(keep)
        else:
            previous_gtids = str(mgr.log_gtids)
            model[mgr.rotate().name] = ReferenceFile(previous_gtids)
    assert set(mgr.files) == set(model)
    content = hashlib.sha256()
    for name in mgr.index.names():
        log_file, reference = mgr.files[name], model[name]
        stream = bytes(reference.buffer)
        assert log_file.raw_bytes() == stream
        assert log_file.size_bytes == len(stream)
        assert log_file.checksum() == hashlib.sha256(stream).hexdigest()
        assert log_file.transactions() == group_into_transactions(list(decode_stream(stream)))
        for offset, length in reference.ranges:
            content.update(stream[offset:offset + length])
    assert mgr.content_checksum() == content.hexdigest()


# Storage operations: a run of entries of the given kinds (a rotate entry
# rotates the file under it), a tail truncation of ``n`` entries, or a
# purge of whole files below ``n`` entries from the tail.
KINDS = st.sampled_from(["data", "data", "noop", "config", "rotate"])
storage_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.lists(KINDS, min_size=1, max_size=6)),
        st.tuples(st.just("truncate"), st.integers(1, 5)),
        st.tuples(st.just("purge"), st.integers(0, 6)),
    ),
    min_size=1,
    max_size=12,
)


def make_entry(kind, opid, txn_id):
    if kind == "data":
        txn = data_txn(txn_id, opid, txn_id % 7)
        return LogEntry(opid, txn.encode(), kind)
    if kind == "noop":
        txn = Transaction(events=(NoOpEvent("n1", opid),))
        return LogEntry(opid, txn.encode(), kind)
    if kind == "rotate":
        txn = Transaction(events=(RotateEvent("next", opid),))
        return LogEntry(opid, txn.encode(), kind)
    members = (("n1", "r1", "voter", True), (f"n{txn_id}", "r2", "learner", True))
    txn = Transaction(events=(ConfigChangeEvent("add", f"n{txn_id}", members, opid),))
    return LogEntry(opid, txn.encode(), kind, members)


def answers(storage):
    """Everything the index answers, over the whole live log."""
    first, last = storage.first_index(), storage.last_opid()
    rows = []
    for index in range(first, last.index + 1):
        entry = storage.entry(index)
        rows.append((
            storage.opid_at(index), storage.gtid_at(index),
            entry.opid, entry.payload, entry.kind, entry.metadata,
        ))
    return first, last, storage.file_ranges(), rows


@settings(max_examples=60, deadline=None)
@given(storage_ops)
def test_recovery_rebuilds_the_same_index(ops):
    durable = {}
    storage = BinlogRaftLogStorage(MySQLLogManager(durable))
    term = txn_id = 1
    for op, arg in ops:
        last = storage.last_opid().index
        if op == "append":
            entries = []
            for kind in arg:
                txn_id += 1
                entries.append(make_entry(kind, OpId(term, last + len(entries) + 1), txn_id))
            storage.append(entries)
        elif op == "truncate":
            # Down to the first retained index: below what an earlier
            # purge's horizon kept, too.
            cut = max(storage.first_index(), last - arg + 1)
            if cut <= last:
                storage.truncate_from(cut)
                term += 1  # a new leader's entries replace the suffix
        elif last >= storage.first_index():
            storage.purge_files_below(max(storage.first_index(), last - arg))
    before = answers(storage)
    recovered = BinlogRaftLogStorage(MySQLLogManager(durable))
    assert answers(recovered) == before
    storage.reload(storage.log_manager)
    assert answers(storage) == before

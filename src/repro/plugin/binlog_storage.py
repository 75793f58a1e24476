"""The MySQL specialization of the Raft log abstraction (§3.1).

kuduraft cannot natively read MySQL binary log files; the plugin gives it
this adapter instead. Raft log entries *are* binlog transactions: an
entry's payload is the encoded event group, its OpId lives inside the
framing event, and reads genuinely parse file bytes (the path the leader
takes to serve followers that fell behind the in-memory cache).

The index map (raft index → file/offset) is volatile and rebuilt by
scanning the files — which is exactly what happens during crash
recovery. Alongside it the storage keeps a per-file index-range map
(file → lowest/highest raft index) so log maintenance — suffix
truncation and compaction-tick file purges — touches only the affected
range instead of scanning every record, and a small bounded memo of
recently materialized payload bytes so the active read window (lagging
followers re-reading the same suffix every round) skips the file-byte
copy.

Every member stores every payload, so the work that depends only on the
payload is done once per process: the framing facts an index record
needs (framing event, entry kind, config metadata, GTID) are classified
once and cached on the interned transaction the decode table returns.
What depends on the window is done once per window: an append resolves
the current file once (a rotate entry still rotates mid-window) and
records each file's index range once per run of entries in that file.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import LogTruncatedError, RaftError
from repro.mysql.binlog import TransactionLocation
from repro.mysql.events import (
    ConfigChangeEvent,
    GtidEvent,
    NoOpEvent,
    RotateEvent,
    Transaction,
    decode_interned,
)
from repro.mysql.gtid import Gtid
from repro.mysql.log_manager import MySQLLogManager
from repro.raft.log_storage import (
    ENTRY_KIND_CONFIG,
    ENTRY_KIND_DATA,
    ENTRY_KIND_NOOP,
    ENTRY_KIND_ROTATE,
    LogEntry,
    LogStorage,
)
from repro.raft.types import OpId

# Recently read payloads kept decoded: sized to cover a few maximal
# AppendEntries windows (max_entries_per_append = 64) without holding a
# second copy of the whole log in memory.
_PAYLOAD_MEMO_ENTRIES = 256


def _classify_event(first) -> tuple[str, tuple]:
    if isinstance(first, GtidEvent):
        return ENTRY_KIND_DATA, ()
    if isinstance(first, NoOpEvent):
        return ENTRY_KIND_NOOP, ()
    if isinstance(first, RotateEvent):
        return ENTRY_KIND_ROTATE, ()
    if isinstance(first, ConfigChangeEvent):
        return ENTRY_KIND_CONFIG, first.members
    raise RaftError(f"unclassifiable transaction starting with {type(first).__name__}")


def _framing(txn: Transaction) -> tuple:
    """(framing event, kind, metadata, gtid) of ``txn``, classified once
    and cached on the (frozen, interned) transaction the way its encoded
    bytes are — every member storing the payload shares one answer."""
    facts = txn.__dict__.get("_framing")
    if facts is None:
        first = txn.events[0]
        kind, metadata = _classify_event(first)
        gtid = Gtid(first.source_uuid, first.txn_id) if kind == ENTRY_KIND_DATA else None
        facts = (first, kind, metadata, gtid)
        object.__setattr__(txn, "_framing", facts)
    return facts


@dataclass
class _IndexRecord:
    location: TransactionLocation
    opid: OpId
    kind: str
    metadata: tuple
    # Captured at append/scan time so truncation can strip GTID
    # bookkeeping without decoding the payload again.
    gtid: Gtid | None = None


class BinlogRaftLogStorage(LogStorage):
    """LogStorage over a MySQLLogManager's binlog/relay-log files."""

    def __init__(self, log_manager: MySQLLogManager) -> None:
        self._mgr = log_manager
        self._records: dict[int, _IndexRecord] = {}
        # file name → (lowest, highest) raft index stored in that file.
        # Indexes are dense and files are appended in order, so ranges
        # are contiguous and monotonically increasing across the index.
        self._file_ranges: dict[str, tuple[int, int]] = {}
        self._payload_memo: OrderedDict[int, bytes] = OrderedDict()
        self._first = 1
        self._last = OpId.zero()
        self._rebuild_index()

    @property
    def log_manager(self) -> MySQLLogManager:
        return self._mgr

    def reload(self, log_manager: MySQLLogManager) -> None:
        """Re-point at a (recovered) log manager and rescan the files."""
        self._mgr = log_manager
        self._rebuild_index()

    def seed_base(self, opid: OpId) -> None:
        """Adopt ``opid`` as the snapshot base: the log logically starts
        right after it (history below lives in the backup this member was
        restored from). Only valid on an empty log."""
        if self._records:
            raise RaftError("seed_base requires an empty log")
        self._mgr.set_base_opid(opid)
        self._first = opid.index + 1
        self._last = opid

    def _rebuild_index(self) -> None:
        self._records.clear()
        self._file_ranges.clear()
        self._payload_memo.clear()
        base = self._mgr.base_opid()
        self._first = base.index + 1 if base is not None else 1
        self._last = base if base is not None else OpId.zero()
        first_seen: int | None = None
        for file_name in self._mgr.index.names():
            log_file = self._mgr.files[file_name]
            offset_iter = iter(log_file._txn_offsets)  # noqa: SLF001 - scan path
            for txn in log_file.transactions():
                offset, length = next(offset_iter)
                opid = txn.opid
                if opid is None:
                    raise RaftError(f"unstamped transaction in {file_name!r}")
                _first, kind, metadata, gtid = _framing(txn)
                self._records[opid.index] = _IndexRecord(
                    TransactionLocation(file_name, offset, length), opid, kind, metadata, gtid
                )
                self._note_range(file_name, opid.index, opid.index)
                if first_seen is None or opid.index < first_seen:
                    first_seen = opid.index
                if opid > self._last:
                    self._last = opid
        if first_seen is not None:
            self._first = first_seen

    def _note_range(self, file_name: str, low: int, high: int) -> None:
        lo, hi = self._file_ranges.get(file_name, (low, high))
        self._file_ranges[file_name] = (min(lo, low), max(hi, high))

    # -- LogStorage interface -----------------------------------------------------

    def append(self, entries: list[LogEntry]) -> None:
        """Append ``entries`` in order. A payload this process has neither
        encoded nor decoded before is validated whole, so a torn body
        raises ``BinlogCorruptionError`` here — before anything of that
        entry is stored — rather than on a later read; entries ahead of it
        in the same call stay appended, their file range recorded."""
        mgr = self._mgr
        log_file = mgr.current_file
        run_from = None  # first index this call appended to ``log_file``
        try:
            for entry in entries:
                opid = entry.opid
                if self._records and opid.index != self._last.index + 1:
                    raise RaftError(f"append gap: expected {self._last.index + 1}, got {opid}")
                # The first member to see a payload it did not encode
                # validates all of it; the rest hit the decode table.
                first, kind, metadata, gtid = _framing(decode_interned(entry.payload))
                if first.opid != opid:
                    raise RaftError(f"payload OpId {first.opid} != entry OpId {opid}")
                location, next_file = mgr.append_encoded(
                    log_file, entry.payload, gtid, kind == ENTRY_KIND_ROTATE
                )
                self._records[opid.index] = _IndexRecord(location, opid, kind, metadata, gtid)
                self._last = opid
                if run_from is None:
                    run_from = opid.index
                if next_file is not log_file:
                    self._note_range(log_file.name, run_from, opid.index)
                    log_file, run_from = next_file, None
        finally:
            if run_from is not None:
                self._note_range(log_file.name, run_from, self._last.index)

    def truncate_from(self, index: int) -> list[LogEntry]:
        if index < self._first:
            raise LogTruncatedError(f"cannot truncate purged index {index}")
        # The log is dense, so the doomed suffix is exactly
        # [index, last] — O(suffix), no full-record scan.
        doomed = [i for i in range(index, self._last.index + 1) if i in self._records]
        if not doomed:
            return []
        removed_entries = [self._entry_from_record(self._records[i]) for i in doomed]
        # Group by file, then truncate each file's transaction tail.
        by_file: dict[str, int] = {}
        for i in doomed:
            name = self._records[i].location.file_name
            by_file[name] = by_file.get(name, 0) + 1
        for name, remove_count in by_file.items():
            log_file = self._mgr.files[name]
            keep = log_file.transaction_count - remove_count
            was_closed = log_file.closed
            log_file.closed = False  # truncation may touch rotated files
            log_file.truncate_transactions_from(keep)
            log_file.closed = was_closed
        # Strip the GTIDs of removed data transactions from the log's GTID
        # bookkeeping (§3.3 step 4) — captured in the index record, so no
        # payload re-decode here.
        for i in doomed:
            gtid = self._records[i].gtid
            if gtid is not None:
                self._mgr.log_gtids.remove(gtid)
        for i in doomed:
            del self._records[i]
            self._payload_memo.pop(i, None)
        for name in by_file:
            lo, _hi = self._file_ranges[name]
            if lo >= index:
                del self._file_ranges[name]
            else:
                self._file_ranges[name] = (lo, index - 1)
        record = self._records.get(index - 1)
        if record is not None:
            self._last = record.opid
        else:
            base = self._mgr.base_opid()
            self._last = base if base is not None else OpId.zero()
        return removed_entries

    def entry(self, index: int) -> LogEntry | None:
        record = self._records.get(index)
        if record is None:
            if index < self._first and self._first > 1:
                raise LogTruncatedError(f"index {index} purged (first={self._first})")
            return None
        return self._entry_from_record(record)

    def opid_at(self, index: int) -> OpId | None:
        """O(1) from the index map — no file read, no parse."""
        record = self._records.get(index)
        if record is None:
            base = self._mgr.base_opid()
            if base is not None and index == base.index:
                # The snapshot boundary: term is known even though the
                # payload lives in the backup (Raft last-included-term).
                return base
            if index < self._first and self._first > 1:
                raise LogTruncatedError(f"index {index} purged (first={self._first})")
            return None
        return record.opid

    def gtid_at(self, index: int) -> Gtid | None:
        """The GTID the entry at ``index`` carries (None for control
        entries and indexes this log does not hold) — from the index map,
        no parse."""
        record = self._records.get(index)
        return record.gtid if record is not None else None

    def _entry_from_record(self, record: _IndexRecord) -> LogEntry:
        index = record.opid.index
        payload = self._payload_memo.get(index)
        if payload is None:
            payload = self._mgr.read_transaction_bytes(record.location)
            self._payload_memo[index] = payload
            while len(self._payload_memo) > _PAYLOAD_MEMO_ENTRIES:
                self._payload_memo.popitem(last=False)
        else:
            self._payload_memo.move_to_end(index)
        return LogEntry(record.opid, payload, record.kind, record.metadata)

    def first_index(self) -> int:
        return self._first

    def last_opid(self) -> OpId:
        return self._last

    def stats(self) -> dict:
        """Log shape summary for experiments and compaction assertions."""
        return {
            "files": len(self._mgr.index),
            "entries": len(self._records),
            "first_index": self._first,
            "last_index": self._last.index,
            "payload_memo_entries": len(self._payload_memo),
        }

    # -- purging (§A.1) ---------------------------------------------------------------

    def purge_files_below(self, horizon_index: int) -> list[str]:
        """Remove whole log files whose every entry is below ``horizon``
        (and that are not the current file). Returns purged file names.
        Eligibility comes from the per-file index-range map — O(files),
        not O(entries), so compaction ticks stay cheap on big logs."""
        removable: list[str] = []
        for name in self._mgr.index.names()[:-1]:  # never the current file
            bounds = self._file_ranges.get(name)
            if bounds is not None and bounds[1] >= horizon_index:
                break  # purge must remain a prefix
            removable.append(name)
        if not removable:
            return []
        boundary = self._mgr.index.names()[len(removable)]
        purged = self._mgr.purge_logs_to(boundary, approval=lambda name: name in removable)
        for name in purged:
            bounds = self._file_ranges.pop(name, None)
            if bounds is None:
                continue
            for i in range(bounds[0], bounds[1] + 1):
                self._records.pop(i, None)
                self._payload_memo.pop(i, None)
        if self._file_ranges:
            self._first = min(lo for lo, _hi in self._file_ranges.values())
        return purged

"""The MySQL specialization of the Raft log abstraction (§3.1).

kuduraft cannot natively read MySQL binary log files; the plugin gives it
this adapter instead. Raft log entries *are* binlog transactions: an
entry's payload is the encoded event group and its OpId lives inside the
framing event.

The index is volatile and rebuilt by re-parsing the files — which is
exactly what happens during crash recovery. It is one span per file: the
raft index of the file's first entry and one slot per entry, so raft
index ``i`` is the transaction at ordinal ``i - first`` of that file. A
read hands back the ``bytes`` object the file stores, and log
maintenance — suffix truncation and compaction-tick file purges —
touches only the spans it affects.

Every member stores every payload, so the work and the memory that
depend only on the payload are spent once per process: the index facts
of an entry (OpId, kind, config metadata, GTID) are classified once and
cached on the interned transaction the decode table returns, and each
member's slot references that tuple; the files keep the leader's payload
object itself. What depends on the window is done once per window: an
append resolves the current file once (a rotate entry still rotates
mid-window).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import LogTruncatedError, RaftError
from repro.mysql.binlog import BinlogFile
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
from repro.mysql.timing import TimingProfile
from repro.raft.hooks import RaftHooks, TimingModel
from repro.raft.log_storage import (
    ENTRY_KIND_CONFIG,
    ENTRY_KIND_DATA,
    ENTRY_KIND_NOOP,
    ENTRY_KIND_ROTATE,
    LogEntry,
    LogStorage,
)
from repro.raft.types import OpId
from repro.sim.rng import RngStream


class BinlogHooks(RaftHooks):
    """Raft's own entries rendered as binlog transactions: the leader's
    no-op and a membership change. Database members and logtailers
    share them."""

    def noop_payload(self, leader: str):
        return lambda opid: Transaction(events=(NoOpEvent(leader, opid),)).encode()

    def config_payload(self, change: str, subject: str, members_wire: tuple):
        return lambda opid: Transaction(
            events=(ConfigChangeEvent(change, subject, members_wire, opid),)
        ).encode()


class BinlogFsyncTiming(TimingModel):
    """Follower-side relay-log write cost before the AppendEntries ack:
    one binlog fsync, drawn from the ``label`` child stream."""

    def __init__(self, timing: TimingProfile, rng: RngStream, label: str) -> None:
        self._timing = timing
        self._rng = rng.child(label)

    def log_append_delay(self, total_bytes: int) -> float:
        return self._timing.binlog_fsync(self._rng)


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


class _Facts(NamedTuple):
    """What the index knows of one entry without reading its payload."""

    opid: OpId
    kind: str
    metadata: tuple
    gtid: Gtid | None


def _index_facts(txn: Transaction) -> _Facts:
    """The index facts of ``txn``, classified once and cached on the
    (frozen, interned) transaction the way its encoded bytes are — every
    member storing the payload shares one tuple, and its index slot
    references that tuple."""
    facts = txn.__dict__.get("_index_facts")
    if facts is None:
        first = txn.events[0]
        kind, metadata = _classify_event(first)
        gtid = Gtid(first.source_uuid, first.txn_id) if kind == ENTRY_KIND_DATA else None
        facts = _Facts(first.opid, kind, metadata, gtid)
        object.__setattr__(txn, "_index_facts", facts)
    return facts


class _FileSpan:
    """The entries one log file holds: the raft index of its first entry
    and, in file order, each entry's index facts — the tuple ``_index_facts``
    cached on the payload's transaction, shared with every other member
    that stores it. The payload stays in the file, at the same ordinal:
    entry ``i`` is at ordinal ``i - first``."""

    __slots__ = ("file", "first", "facts")

    def __init__(self, log_file: BinlogFile, first: int) -> None:
        self.file = log_file
        self.first = first
        self.facts: list[_Facts] = []

    @property
    def last(self) -> int:
        return self.first + len(self.facts) - 1


class BinlogRaftLogStorage(LogStorage):
    """LogStorage over a MySQLLogManager's binlog/relay-log files."""

    def __init__(self, log_manager: MySQLLogManager) -> None:
        self._mgr = log_manager
        # One span per file holding entries, in index order. Indexes are
        # dense and files are appended in order, so spans are contiguous
        # and increasing.
        self._spans: list[_FileSpan] = []
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
        if self._spans:
            raise RaftError("seed_base requires an empty log")
        self._mgr.set_base_opid(opid)
        self._first = opid.index + 1
        self._last = opid

    def _rebuild_index(self) -> None:
        self._spans = []
        base = self._mgr.base_opid()
        self._first = base.index + 1 if base is not None else 1
        self._last = base if base is not None else OpId.zero()
        for file_name in self._mgr.index.names():
            log_file = self._mgr.files[file_name]
            span = None
            for txn in log_file.transactions():
                opid = txn.opid
                if opid is None:
                    raise RaftError(f"unstamped transaction in {file_name!r}")
                if span is None:
                    span = _FileSpan(log_file, opid.index)
                    self._spans.append(span)
                span.facts.append(_index_facts(txn))
                if opid > self._last:
                    self._last = opid
        if self._spans:
            self._first = self._spans[0].first

    def _span_of(self, index: int) -> _FileSpan | None:
        """The span holding ``index`` — almost always the newest."""
        for span in reversed(self._spans):
            if index >= span.first:
                return span if index - span.first < len(span.facts) else None
        return None

    def file_ranges(self) -> dict[str, tuple[int, int]]:
        """file name → (lowest, highest) raft index stored in that file."""
        return {span.file.name: (span.first, span.last) for span in self._spans}

    # -- LogStorage interface -----------------------------------------------------

    def append(self, entries: list[LogEntry]) -> None:
        """Append ``entries`` in order. A payload this process has neither
        encoded nor decoded before is validated whole, so a torn body
        raises ``BinlogCorruptionError`` here — before anything of that
        entry is stored — rather than on a later read; entries ahead of it
        in the same call stay appended."""
        mgr = self._mgr
        log_file = mgr.current_file
        spans = self._spans
        span = spans[-1] if spans and spans[-1].file is log_file else None
        for entry in entries:
            opid = entry.opid
            if spans and opid.index != self._last.index + 1:
                raise RaftError(f"append gap: expected {self._last.index + 1}, got {opid}")
            # The first member to see a payload it did not encode
            # validates all of it; the rest hit the decode table.
            facts = _index_facts(decode_interned(entry.payload))
            if facts.opid != opid:
                raise RaftError(f"payload OpId {facts.opid} != entry OpId {opid}")
            _ordinal, next_file = mgr.append_encoded(
                log_file, entry.payload, facts.gtid, facts.kind == ENTRY_KIND_ROTATE
            )
            if span is None:
                span = _FileSpan(log_file, opid.index)
                spans.append(span)
            span.facts.append(facts)
            self._last = opid
            if next_file is not log_file:
                log_file, span = next_file, None

    def truncate_from(self, index: int) -> list[LogEntry]:
        if index < self._first:
            raise LogTruncatedError(f"cannot truncate purged index {index}")
        # The log is dense, so the doomed suffix is exactly [index, last]:
        # the tail of the spans that reach ``index``.
        cuts = [(span, max(0, index - span.first)) for span in self._spans if span.last >= index]
        if not cuts:
            return []
        removed_entries = [
            self._entry_at(span, ordinal)
            for span, cut in cuts
            for ordinal in range(cut, len(span.facts))
        ]
        gtids = self._mgr.log_gtids
        for span, cut in cuts:
            log_file = span.file
            was_closed = log_file.closed
            log_file.closed = False  # truncation may touch rotated files
            log_file.truncate_transactions_from(cut)
            log_file.closed = was_closed
            # Strip the GTIDs of removed data transactions from the log's
            # GTID bookkeeping (§3.3 step 4) — in the index facts, so no
            # payload re-decode here.
            for facts in span.facts[cut:]:
                if facts.gtid is not None:
                    gtids.remove(facts.gtid)
            del span.facts[cut:]
        self._spans = [span for span in self._spans if span.facts]
        tail = self._span_of(index - 1)
        if tail is not None:
            self._last = tail.facts[-1].opid
        else:
            base = self._mgr.base_opid()
            self._last = base if base is not None else OpId.zero()
        return removed_entries

    def entry(self, index: int) -> LogEntry | None:
        span = self._span_of(index)
        if span is None:
            if index < self._first and self._first > 1:
                raise LogTruncatedError(f"index {index} purged (first={self._first})")
            return None
        return self._entry_at(span, index - span.first)

    def opid_at(self, index: int) -> OpId | None:
        """O(1) from the index spans — no file read, no parse."""
        span = self._span_of(index)
        if span is None:
            base = self._mgr.base_opid()
            if base is not None and index == base.index:
                # The snapshot boundary: term is known even though the
                # payload lives in the backup (Raft last-included-term).
                return base
            if index < self._first and self._first > 1:
                raise LogTruncatedError(f"index {index} purged (first={self._first})")
            return None
        return span.facts[index - span.first].opid

    def gtid_at(self, index: int) -> Gtid | None:
        """The GTID the entry at ``index`` carries (None for control
        entries and indexes this log does not hold) — from the index
        spans, no parse."""
        span = self._span_of(index)
        return span.facts[index - span.first].gtid if span is not None else None

    def _entry_at(self, span: _FileSpan, ordinal: int) -> LogEntry:
        opid, kind, metadata, _gtid = span.facts[ordinal]
        return LogEntry(opid, span.file.read_bytes_at(ordinal), kind, metadata)

    def first_index(self) -> int:
        return self._first

    def last_opid(self) -> OpId:
        return self._last

    # -- purging (§A.1) ---------------------------------------------------------------

    def purge_files_below(self, horizon_index: int) -> list[str]:
        """Remove whole log files whose every entry is below ``horizon``
        (and that are not the current file). Returns purged file names.
        Eligibility comes from the per-file spans — O(files), not
        O(entries), so compaction ticks stay cheap on big logs."""
        ranges = self.file_ranges()
        removable: list[str] = []
        for name in self._mgr.index.names()[:-1]:  # never the current file
            bounds = ranges.get(name)
            if bounds is not None and bounds[1] >= horizon_index:
                break  # purge must remain a prefix
            removable.append(name)
        if not removable:
            return []
        boundary = self._mgr.index.names()[len(removable)]
        purged = self._mgr.purge_logs_to(boundary, approval=lambda name: name in removable)
        self._spans = [span for span in self._spans if span.file.name not in purged]
        if self._spans:
            self._first = self._spans[0].first
        return purged

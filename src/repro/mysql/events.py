"""Binary-log event model with real byte framing.

Every event encodes to ``header | payload | crc32`` where the header is
``struct('<BI')`` (type code, payload length) and the trailing crc32
covers header+payload — mirroring MySQL's per-event checksum, which the
paper relies on to detect corruption (§3.4). Payloads are canonical JSON,
which keeps the codec debuggable while still exercising genuine
parse-from-bytes paths (the Raft leader parses historical binlog files to
serve lagging followers, §3.1).

A *transaction* on the wire is the concatenation of its events:
``Gtid, Query(BEGIN), TableMap, Rows..., Xid``.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Iterator

from repro.errors import BinlogCorruptionError, BinlogError
from repro.raft.types import OpId

_HEADER = struct.Struct("<BI")
_CRC = struct.Struct("<I")


class BinlogEvent:
    """Base class; subclasses define TYPE_CODE and payload_dict/from_dict."""

    TYPE_CODE: ClassVar[int] = 0

    def payload_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BinlogEvent":
        raise NotImplementedError

    def encode(self) -> bytes:
        payload = json.dumps(self.payload_dict(), sort_keys=True, separators=(",", ":")).encode()
        header = _HEADER.pack(self.TYPE_CODE, len(payload))
        checksum = zlib.crc32(header + payload)
        return header + payload + _CRC.pack(checksum)

    @property
    def wire_size(self) -> int:
        return len(self.encode())


def _opid_to_wire(opid: OpId | None) -> list[int] | None:
    return [opid.term, opid.index] if opid is not None else None


def _opid_from_wire(value: list[int] | None) -> OpId | None:
    return OpId(value[0], value[1]) if value is not None else None


@dataclass(frozen=True)
class FormatDescriptionEvent(BinlogEvent):
    """First event of every log file: writer version info."""

    TYPE_CODE: ClassVar[int] = 1
    server_version: str = "repro-mysql-5.6"

    def payload_dict(self) -> dict[str, Any]:
        return {"server_version": self.server_version}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FormatDescriptionEvent":
        return cls(server_version=payload["server_version"])


@dataclass(frozen=True)
class PreviousGtidsEvent(BinlogEvent):
    """Second event of every log file: GTID set executed before this file.

    Stored as the canonical text form; the paper keeps this header when
    rotating so purged files don't lose GTID coverage (§A.1).
    """

    TYPE_CODE: ClassVar[int] = 2
    gtid_set: str = ""

    def payload_dict(self) -> dict[str, Any]:
        return {"gtid_set": self.gtid_set}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PreviousGtidsEvent":
        return cls(gtid_set=payload["gtid_set"])


@dataclass(frozen=True)
class GtidEvent(BinlogEvent):
    """Starts a transaction; carries the GTID and the Raft-stamped OpId.

    ``last_committed`` / ``sequence_number`` are the LOGICAL_CLOCK
    commit-parent metadata (MySQL 5.7 MTS): two transactions may apply in
    parallel on a replica iff the later one's ``last_committed`` is at or
    below the earlier one's engine-committed ``sequence_number``.
    ``writeset`` optionally carries row-PK hashes (MySQL 8 WRITESET) so
    the primary can relax ``last_committed`` past group boundaries for
    non-conflicting transactions. A zero ``sequence_number`` marks an
    unstamped (pre-logical-clock) transaction; replicas fall back to
    serial apply for those.
    """

    TYPE_CODE: ClassVar[int] = 3
    source_uuid: str = ""
    txn_id: int = 0
    opid: OpId | None = None
    last_committed: int = 0
    sequence_number: int = 0
    writeset: tuple = ()

    def payload_dict(self) -> dict[str, Any]:
        return {
            "source_uuid": self.source_uuid,
            "txn_id": self.txn_id,
            "opid": _opid_to_wire(self.opid),
            "last_committed": self.last_committed,
            "sequence_number": self.sequence_number,
            "writeset": list(self.writeset),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GtidEvent":
        return cls(
            source_uuid=payload["source_uuid"],
            txn_id=payload["txn_id"],
            opid=_opid_from_wire(payload["opid"]),
            last_committed=payload.get("last_committed", 0),
            sequence_number=payload.get("sequence_number", 0),
            writeset=tuple(payload.get("writeset", ())),
        )


@dataclass(frozen=True)
class QueryEvent(BinlogEvent):
    """A statement (BEGIN, DDL, ...)."""

    TYPE_CODE: ClassVar[int] = 4
    sql: str = ""

    def payload_dict(self) -> dict[str, Any]:
        return {"sql": self.sql}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "QueryEvent":
        return cls(sql=payload["sql"])


@dataclass(frozen=True)
class TableMapEvent(BinlogEvent):
    """Maps a table id to a schema-qualified table for following row events."""

    TYPE_CODE: ClassVar[int] = 5
    table_id: int = 0
    schema: str = ""
    table: str = ""

    def payload_dict(self) -> dict[str, Any]:
        return {"table_id": self.table_id, "schema": self.schema, "table": self.table}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TableMapEvent":
        return cls(table_id=payload["table_id"], schema=payload["schema"], table=payload["table"])


@dataclass(frozen=True)
class RowsEvent(BinlogEvent):
    """Row-based-replication changes: (before_image, after_image) pairs.

    ``kind`` is one of ``write`` / ``update`` / ``delete``. Images are
    column dicts; a write has no before image, a delete no after image —
    matching RBR full-image mode described in §3.4.
    """

    TYPE_CODE: ClassVar[int] = 6
    kind: str = "write"
    table_id: int = 0
    rows: tuple = field(default_factory=tuple)  # tuple of (before|None, after|None)

    VALID_KINDS: ClassVar[frozenset] = frozenset({"write", "update", "delete"})

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise BinlogError(f"invalid rows-event kind {self.kind!r}")

    def payload_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "table_id": self.table_id, "rows": list(self.rows)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RowsEvent":
        rows = tuple(tuple(pair) for pair in payload["rows"])
        return cls(kind=payload["kind"], table_id=payload["table_id"], rows=rows)


@dataclass(frozen=True)
class XidEvent(BinlogEvent):
    """Commit marker ending a transaction's event group."""

    TYPE_CODE: ClassVar[int] = 7
    xid: int = 0

    def payload_dict(self) -> dict[str, Any]:
        return {"xid": self.xid}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "XidEvent":
        return cls(xid=payload["xid"])


@dataclass(frozen=True)
class RotateEvent(BinlogEvent):
    """Replicated log rotation (§A.1): points at the next file.

    Rotates are consensus-committed like data so log files stay identical
    across the replica set (the paper's log-equality invariant).
    """

    TYPE_CODE: ClassVar[int] = 8
    next_file: str = ""
    opid: OpId | None = None

    def payload_dict(self) -> dict[str, Any]:
        return {"next_file": self.next_file, "opid": _opid_to_wire(self.opid)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RotateEvent":
        return cls(next_file=payload["next_file"], opid=_opid_from_wire(payload["opid"]))


@dataclass(frozen=True)
class NoOpEvent(BinlogEvent):
    """Leader-assertion entry appended on promotion (§3.3 step 1)."""

    TYPE_CODE: ClassVar[int] = 9
    leader: str = ""
    opid: OpId | None = None

    def payload_dict(self) -> dict[str, Any]:
        return {"leader": self.leader, "opid": _opid_to_wire(self.opid)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "NoOpEvent":
        return cls(leader=payload["leader"], opid=_opid_from_wire(payload["opid"]))


@dataclass(frozen=True)
class ConfigChangeEvent(BinlogEvent):
    """Raft membership-change entry (§2.2): one add/remove at a time.

    ``members`` is the full post-change member list as (name, region,
    member_type, has_storage_engine) tuples so any member can reconstruct
    the config from its log alone.
    """

    TYPE_CODE: ClassVar[int] = 10
    change: str = ""  # "add" | "remove" | "bootstrap"
    subject: str = ""
    members: tuple = field(default_factory=tuple)
    opid: OpId | None = None

    def payload_dict(self) -> dict[str, Any]:
        return {
            "change": self.change,
            "subject": self.subject,
            "members": [list(m) for m in self.members],
            "opid": _opid_to_wire(self.opid),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ConfigChangeEvent":
        return cls(
            change=payload["change"],
            subject=payload["subject"],
            members=tuple(tuple(m) for m in payload["members"]),
            opid=_opid_from_wire(payload["opid"]),
        )


_EVENT_TYPES: dict[int, type[BinlogEvent]] = {
    cls.TYPE_CODE: cls
    for cls in (
        FormatDescriptionEvent,
        PreviousGtidsEvent,
        GtidEvent,
        QueryEvent,
        TableMapEvent,
        RowsEvent,
        XidEvent,
        RotateEvent,
        NoOpEvent,
        ConfigChangeEvent,
    )
}


def decode_event(data: bytes, offset: int = 0) -> tuple[BinlogEvent, int]:
    """Decode one event at ``offset``; returns (event, next_offset).

    Raises :class:`BinlogCorruptionError` on truncation, a bad checksum,
    or an unknown type code.
    """
    end_of_header = offset + _HEADER.size
    if end_of_header > len(data):
        raise BinlogCorruptionError(f"truncated header at offset {offset}")
    type_code, payload_len = _HEADER.unpack_from(data, offset)
    end_of_payload = end_of_header + payload_len
    end_of_event = end_of_payload + _CRC.size
    if end_of_event > len(data):
        raise BinlogCorruptionError(f"truncated event at offset {offset}")
    stored_crc = _CRC.unpack_from(data, end_of_payload)[0]
    actual_crc = zlib.crc32(data[offset:end_of_payload])
    if stored_crc != actual_crc:
        raise BinlogCorruptionError(f"checksum mismatch at offset {offset}")
    event_cls = _EVENT_TYPES.get(type_code)
    if event_cls is None:
        raise BinlogCorruptionError(f"unknown event type {type_code} at offset {offset}")
    # Decode bytes explicitly: json.loads on str skips encoding detection.
    payload = json.loads(data[end_of_header:end_of_payload].decode("utf-8"))
    return event_cls.from_dict(payload), end_of_event


def decode_stream(data: bytes, offset: int = 0) -> Iterator[BinlogEvent]:
    """Decode consecutive events until the end of ``data``."""
    while offset < len(data):
        event, offset = decode_event(data, offset)
        yield event


def encode_events(events: list[BinlogEvent]) -> bytes:
    return b"".join(event.encode() for event in events)


# One payload is decoded by every member that stores or applies it (20
# and 7 on the paper's topology), all within the replication window of a
# few hundred entries. Decoded transactions are therefore interned by the
# *content* of their bytes: transactions are frozen and the codec is
# canonical, so equal bytes mean an equal transaction. Only bytes that
# decoded cleanly — every header and CRC checked — are ever entered, so a
# torn or corrupted payload differs from every key and takes the full
# validating decode. The bound is sized from the measured reuse window
# (peak applier lag on the write benchmark is 175 entries); eviction is
# first-in, first-out. The returned transaction is shared by every caller
# in the process: its events are frozen, but the row images inside a
# RowsEvent are plain dicts — read or copy them (as the applier and CDC
# do), never write to them.
_INTERN_MAX = 1024
_interned: dict[bytes, "Transaction"] = {}


def _decode_interned(data: bytes) -> "Transaction":
    data = bytes(data)
    txn = _interned.get(data)
    if txn is None:
        txn = Transaction(events=tuple(decode_stream(data)))
        # Bytes that decoded cleanly ARE the transaction's encoded form
        # (canonical codec), so a decoded transaction never re-encodes.
        object.__setattr__(txn, "_encoded", data)
        if len(_interned) >= _INTERN_MAX:
            del _interned[next(iter(_interned))]
        _interned[data] = txn
    return txn


def framing_event(data: bytes) -> BinlogEvent:
    """The first (framing) event of an encoded transaction — what log
    storage classifies and OpId-checks an entry by. Shares the decode
    table with :meth:`Transaction.decode`, so a member storing a payload
    another member already decoded parses nothing."""
    return _decode_interned(data).events[0]


@dataclass(frozen=True)
class Transaction:
    """One replicated transaction: a GTID-framed group of binlog events.

    This is the unit Raft replicates. ``opid`` is stamped by Raft at
    commit time on the primary (§3.4) and travels inside the GtidEvent.

    Transactions are immutable, and the codec is canonical (sorted-key
    compact JSON), so the encoded byte form is a pure function of the
    events — :meth:`encode` computes it once and memoizes. Stamping
    helpers (:meth:`with_opid`, :meth:`with_commit_meta`) build *new*
    transactions, which naturally invalidates the cache; the hot
    re-encode sites (checksums, re-appends, replication fan-out,
    ``wire_size`` accounting) all hit the memo.
    """

    events: tuple

    def __post_init__(self) -> None:
        if not self.events:
            raise BinlogError("empty transaction")
        first = self.events[0]
        if not isinstance(first, (GtidEvent, NoOpEvent, RotateEvent, ConfigChangeEvent)):
            raise BinlogError(f"transaction must start with a framed event, got {type(first).__name__}")

    @property
    def gtid_event(self) -> GtidEvent | None:
        first = self.events[0]
        return first if isinstance(first, GtidEvent) else None

    @property
    def opid(self) -> OpId | None:
        return getattr(self.events[0], "opid", None)

    @property
    def is_data(self) -> bool:
        """True for client transactions (vs no-op / rotate / config)."""
        return isinstance(self.events[0], GtidEvent)

    def with_opid(self, opid: OpId) -> "Transaction":
        """A copy with the OpId stamped into the framing event."""
        first = self.events[0]
        if isinstance(first, GtidEvent):
            stamped = replace(first, opid=opid)
        elif isinstance(first, NoOpEvent):
            stamped = NoOpEvent(first.leader, opid)
        elif isinstance(first, RotateEvent):
            stamped = RotateEvent(first.next_file, opid)
        elif isinstance(first, ConfigChangeEvent):
            stamped = ConfigChangeEvent(first.change, first.subject, first.members, opid)
        else:  # pragma: no cover - __post_init__ forbids this
            raise BinlogError(f"cannot stamp {type(first).__name__}")
        return Transaction(events=(stamped,) + tuple(self.events[1:]))

    def with_commit_meta(
        self,
        opid: OpId,
        last_committed: int,
        sequence_number: int,
        writeset: tuple = (),
    ) -> "Transaction":
        """A copy with OpId plus LOGICAL_CLOCK/WRITESET metadata stamped
        into the GtidEvent (primary flush stage, §3.4)."""
        first = self.events[0]
        if not isinstance(first, GtidEvent):
            raise BinlogError(f"cannot stamp commit metadata on {type(first).__name__}")
        stamped = replace(
            first,
            opid=opid,
            last_committed=last_committed,
            sequence_number=sequence_number,
            writeset=tuple(writeset),
        )
        return Transaction(events=(stamped,) + tuple(self.events[1:]))

    def encode(self) -> bytes:
        cached = self.__dict__.get("_encoded")
        if cached is None:
            cached = encode_events(list(self.events))
            object.__setattr__(self, "_encoded", cached)
        return cached

    @property
    def wire_size(self) -> int:
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> "Transaction":
        """Parse and validate ``data`` — once per process for any given
        content; later decodes of equal bytes return the same (frozen)
        transaction, so its row-image dicts must not be mutated."""
        return _decode_interned(data)

    @staticmethod
    def peek_opid(data: bytes) -> OpId | None:
        """The OpId stamped in the framing event — the duplicate/conflict
        detection path."""
        return getattr(framing_event(data), "opid", None)


def group_into_transactions(events: list[BinlogEvent]) -> list[Transaction]:
    """Group a flat event stream back into transactions.

    File-header events (FormatDescription, PreviousGtids) are skipped.
    Data transactions run from their GtidEvent through their XidEvent;
    no-op/rotate/config entries are single-event transactions.
    """
    transactions: list[Transaction] = []
    current: list[BinlogEvent] = []
    for event in events:
        if isinstance(event, (FormatDescriptionEvent, PreviousGtidsEvent)):
            if current:
                raise BinlogError("file header event inside a transaction")
            continue
        if isinstance(event, (NoOpEvent, RotateEvent, ConfigChangeEvent)):
            if current:
                raise BinlogError("control event inside a transaction")
            transactions.append(Transaction(events=(event,)))
            continue
        if isinstance(event, GtidEvent) and current:
            raise BinlogError("GtidEvent inside an open transaction")
        current.append(event)
        if isinstance(event, XidEvent):
            transactions.append(Transaction(events=tuple(current)))
            current = []
    if current:
        raise BinlogError("trailing partial transaction")
    return transactions

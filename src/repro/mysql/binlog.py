"""Binary log files and the log index.

A :class:`BinlogFile` is an append-only byte stream framed as binlog
events: two header events (FormatDescription, PreviousGtids) followed by
replicated transactions. The same class backs both personas — MySQL
*binlogs* on a primary and *relay-logs* on a replica (§3.2); only the
file-name prefix differs. A file keeps each transaction as the immutable
``bytes`` object it was handed rather than copying it into a buffer, so
one payload stored by every member of a simulated replica set exists
once per process.

An :class:`LogIndex` mirrors MySQL's ``.index`` file: the ordered list of
live log files, updated on rotation and purge.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.errors import BinlogError
from repro.mysql.events import (
    BinlogEvent,
    FormatDescriptionEvent,
    PreviousGtidsEvent,
    Transaction,
    decode_stream,
    group_into_transactions,
)

BINLOG_PREFIX = "binary-logs"
RELAY_PREFIX = "relay-logs"


def format_file_name(prefix: str, sequence: int) -> str:
    if sequence < 1:
        raise BinlogError(f"file sequence starts at 1, got {sequence}")
    return f"{prefix}-{sequence:06d}"


def parse_file_sequence(name: str) -> int:
    prefix, _, sequence = name.rpartition("-")
    if not prefix or not sequence.isdigit():
        raise BinlogError(f"malformed log file name {name!r}")
    return int(sequence)


class BinlogFile:
    """One append-only log file: header events, then transactions.

    The file holds its header bytes and the immutable ``bytes`` object of
    each appended transaction, in order — on a follower the very object
    the leader's ``Transaction.encode()`` produced, so every member in
    the process shares one copy of each payload. Nothing here mutates a
    stored payload; a fault that tears one member's copy must replace
    that member's reference instead. A transaction is addressed by its
    ordinal in the file. The byte stream (:meth:`raw_bytes`) is the
    header followed by the payloads, and crash recovery re-parses it
    (see :meth:`transactions`).
    """

    def __init__(self, name: str, previous_gtids: str = "") -> None:
        self.name = name
        self._header = FormatDescriptionEvent().encode() + PreviousGtidsEvent(previous_gtids).encode()
        self._payloads: list[bytes] = []
        self.size_bytes = len(self._header)  # running total of the byte stream
        self.closed = False

    @property
    def transaction_count(self) -> int:
        return len(self._payloads)

    def append_transaction(self, txn: Transaction) -> int:
        return self.append_encoded(txn.encode())

    def append_encoded(self, data: bytes) -> int:
        """Append encoded transaction bytes, stored by reference. Returns
        the transaction's ordinal in this file."""
        if self.closed:
            raise BinlogError(f"log file {self.name!r} is closed")
        self._payloads.append(data)
        self.size_bytes += len(data)
        return len(self._payloads) - 1

    def read_bytes_at(self, ordinal: int) -> bytes:
        """The stored encoded bytes of transaction ``ordinal`` (no copy)."""
        if not 0 <= ordinal < len(self._payloads):
            raise BinlogError(f"no transaction {ordinal} in {self.name!r}")
        return self._payloads[ordinal]

    def read_transaction_at(self, ordinal: int) -> Transaction:
        return Transaction.decode(self.read_bytes_at(ordinal))

    def events(self) -> list[BinlogEvent]:
        """Parse the whole file from bytes (header events included)."""
        return list(decode_stream(self.raw_bytes()))

    def transactions(self) -> list[Transaction]:
        """Parse from raw bytes — the 'parse historical binlog files' path
        the leader uses to serve lagging followers (§3.1)."""
        return group_into_transactions(self.events())

    def previous_gtids(self) -> str:
        header = list(decode_stream(self._header))[1]
        if not isinstance(header, PreviousGtidsEvent):
            raise BinlogError(f"file {self.name!r} missing PreviousGtids header")
        return header.gtid_set

    def truncate_transactions_from(self, count_to_keep: int) -> int:
        """Drop all but the first ``count_to_keep`` transactions (Raft log
        truncation of an uncommitted suffix, §3.3 step 4). Returns how
        many transactions were removed."""
        if count_to_keep < 0 or count_to_keep > len(self._payloads):
            raise BinlogError(
                f"cannot keep {count_to_keep} of {len(self._payloads)} transactions"
            )
        removed = self._payloads[count_to_keep:]
        self.size_bytes -= sum(map(len, removed))
        del self._payloads[count_to_keep:]
        return len(removed)

    def raw_bytes(self) -> bytes:
        return b"".join([self._header, *self._payloads])

    def iter_transaction_bytes(self) -> "Iterator[bytes]":
        """Encoded bytes of each transaction, in append order — the
        checksum/ship fast path that skips both the event parse and the
        re-encode."""
        return iter(self._payloads)

    def checksum(self) -> str:
        """Content hash for cross-replica log-equality checks (§5.1).

        Uses sha256, not crc32: the stream embeds per-event crc32 values,
        and crc32(m ‖ crc32(m)) is a constant residue for any m, so an
        outer crc32 would be blind to content.
        """
        digest = hashlib.sha256(self._header)
        for data in self._payloads:
            digest.update(data)
        return digest.hexdigest()

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"BinlogFile({self.name!r}, {self.transaction_count} txns, {state})"


class LogIndex:
    """The ``.index`` file: ordered names of live log files."""

    def __init__(self) -> None:
        self._names: list[str] = []

    def add(self, name: str) -> None:
        if name in self._names:
            raise BinlogError(f"duplicate log file {name!r} in index")
        if self._names and parse_file_sequence(name) <= parse_file_sequence(self._names[-1]):
            raise BinlogError(f"log file {name!r} out of order after {self._names[-1]!r}")
        self._names.append(name)

    def remove(self, name: str) -> None:
        try:
            self._names.remove(name)
        except ValueError:
            raise BinlogError(f"log file {name!r} not in index") from None

    def names(self) -> list[str]:
        return list(self._names)

    def first(self) -> str | None:
        return self._names[0] if self._names else None

    def last(self) -> str | None:
        return self._names[-1] if self._names else None

    def files_before(self, name: str) -> list[str]:
        """Files strictly older than ``name`` (the PURGE LOGS TO set)."""
        if name not in self._names:
            raise BinlogError(f"log file {name!r} not in index")
        return self._names[: self._names.index(name)]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

"""Replication-log management: personas, rotation, purging (§3.2, §A.1).

A MySQL instance writes *binlogs* when acting as a primary and
*relay-logs* when acting as a replica. In MyRaft these are the same
replicated log with different file-name personas; promotion *rewires* the
persona without rewriting history. Log file contents (the transaction
byte stream) are identical across the replica set — rotations replicate
through Raft like data — which is the paper's log-equality invariant.

Purging is local (not replicated): each instance purges by its own disk
budget, but only with approval from a callback (Raft withholds approval
for files not yet shipped out of region, §A.1).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

from repro.errors import BinlogError
from repro.mysql.binlog import (
    BINLOG_PREFIX,
    RELAY_PREFIX,
    BinlogFile,
    LogIndex,
    TransactionLocation,
    format_file_name,
    parse_file_sequence,
)
from repro.mysql.events import GtidEvent, RotateEvent, Transaction
from repro.mysql.gtid import Gtid, GtidSet

Persona = str  # "binlog" | "relay"


class MySQLLogManager:
    """Owns an instance's replication log files.

    State lives in a durable namespace dict (the host's disk) so it
    survives crashes:
      - ``files``: name → BinlogFile
      - ``index``: LogIndex
      - ``persona``, ``sequence``, ``log_gtids``
    """

    def __init__(self, durable: dict[str, Any], persona: Persona = "binlog") -> None:
        if persona not in ("binlog", "relay"):
            raise BinlogError(f"unknown persona {persona!r}")
        self._state = durable
        # Volatile probe counter: file-byte reads served (perf harness
        # and fan-out tests assert on it; resets with the incarnation).
        self.read_calls = 0
        if "files" not in self._state:
            self._state["files"] = {}
            self._state["index"] = LogIndex()
            self._state["persona"] = persona
            self._state["sequence"] = 0
            self._state["log_gtids"] = GtidSet()
            self._open_new_file()

    # -- properties ----------------------------------------------------------

    @property
    def persona(self) -> Persona:
        return self._state["persona"]

    @property
    def files(self) -> dict[str, BinlogFile]:
        return self._state["files"]

    @property
    def index(self) -> LogIndex:
        return self._state["index"]

    @property
    def log_gtids(self) -> GtidSet:
        """GTIDs of every transaction ever appended to this log."""
        return self._state["log_gtids"]

    # -- snapshot base (backup/restore support) -------------------------------

    def set_base_opid(self, opid) -> None:
        """Record that history at/below ``opid`` lives in a backup, not in
        these files (Raft snapshot semantics for restored members)."""
        self._state["base_opid"] = opid

    def base_opid(self):
        """The snapshot base, or None for a full-history log."""
        return self._state.get("base_opid")

    @property
    def current_file(self) -> BinlogFile:
        name = self.index.last()
        if name is None:
            raise BinlogError("log manager has no open file")
        return self.files[name]

    def _prefix(self) -> str:
        return BINLOG_PREFIX if self.persona == "binlog" else RELAY_PREFIX

    def _open_new_file(self) -> BinlogFile:
        self._state["sequence"] += 1
        name = format_file_name(self._prefix(), self._state["sequence"])
        new_file = BinlogFile(name, previous_gtids=str(self.log_gtids))
        self.files[name] = new_file
        self.index.add(name)
        return new_file

    # -- the write path --------------------------------------------------------

    def append_transaction(self, txn: Transaction) -> TransactionLocation:
        """Append one transaction to the current file (the durable part of
        the pipeline's flush stage). Rotate entries also rotate the file."""
        first = txn.events[0]
        gtid = Gtid(first.source_uuid, first.txn_id) if isinstance(first, GtidEvent) else None
        location, _next_file = self.append_encoded(
            self.current_file, txn.encode(), gtid, isinstance(first, RotateEvent)
        )
        return location

    def append_encoded(
        self, log_file: BinlogFile, data: bytes, gtid: Gtid | None, rotates: bool
    ) -> tuple[TransactionLocation, BinlogFile]:
        """Fast path: append pre-encoded bytes to ``log_file`` — the
        current file, which a caller appending a window resolves once —
        with the already classified framing facts for the GTID and rotate
        bookkeeping. Returns the location and the file the next append
        goes to: a rotate entry closes ``log_file`` and opens the next."""
        location = log_file.append_encoded(data)
        if gtid is not None:
            self.log_gtids.add(gtid)
        elif rotates:
            log_file = self.rotate()
        return location, log_file

    def rotate(self) -> BinlogFile:
        """Close the current file and open the next one, carrying the
        previous-GTID set into the new file's header (§A.1)."""
        self.current_file.close()
        return self._open_new_file()

    # -- reads -----------------------------------------------------------------

    def read_transaction(self, location: TransactionLocation) -> Transaction:
        return Transaction.decode(self.read_transaction_bytes(location))

    def read_transaction_bytes(self, location: TransactionLocation) -> bytes:
        """Raw encoded bytes of a transaction (no parse cost)."""
        self.read_calls += 1
        try:
            log_file = self.files[location.file_name]
        except KeyError:
            raise BinlogError(f"log file {location.file_name!r} purged or unknown") from None
        return log_file.read_bytes_at(location.offset)

    def all_transactions(self) -> list[Transaction]:
        """Every live transaction in index order — parsed from bytes."""
        transactions: list[Transaction] = []
        for name in self.index.names():
            transactions.extend(self.files[name].transactions())
        return transactions

    def file_sizes(self) -> dict[str, int]:
        return {name: self.files[name].size_bytes for name in self.index.names()}

    # -- persona rewiring (§3.3 step 3) ------------------------------------------

    def rewire(self, persona: Persona) -> None:
        """Switch binlog ↔ relay persona. History is untouched; the current
        file is rotated so new writes land in a correctly-named file."""
        if persona not in ("binlog", "relay"):
            raise BinlogError(f"unknown persona {persona!r}")
        if persona == self.persona:
            return
        self._state["persona"] = persona
        self.current_file.close()
        self._open_new_file()

    # -- purging (§A.1: local decision, Raft-approved) ----------------------------

    def purge_logs_to(self, name: str, approval: Callable[[str], bool]) -> list[str]:
        """Remove files strictly older than ``name`` where ``approval``
        consents (Raft refuses files not shipped out of region yet).
        Returns the purged file names."""
        purged = []
        for candidate in self.index.files_before(name):
            if not approval(candidate):
                break  # purge must stay a prefix of the index
            purged.append(candidate)
        for victim in purged:
            self.index.remove(victim)
            del self.files[victim]
        return purged

    def truncate_tail_transactions(self, keep_in_current: int) -> int:
        """Truncate the current file to ``keep_in_current`` transactions
        (Raft uncommitted-suffix removal). Returns transactions removed."""
        return self.current_file.truncate_transactions_from(keep_in_current)

    # -- integrity -----------------------------------------------------------------

    def content_checksum(self) -> str:
        """Checksum of the replicated *content* (transaction bytes only),
        independent of persona naming and file boundaries — the §5.1
        leader/follower log-equality check. sha256, because the encoded
        stream embeds per-event crc32s which make an outer crc32 constant.

        Hashes the transactions' stored byte ranges directly: files only
        ever hold canonical ``Transaction.encode()`` output (appends are
        encoded bytes, truncation keeps a prefix), so the raw ranges are
        byte-identical to a decode→re-encode pass at none of the cost.
        """
        digest = hashlib.sha256()
        for name in self.index.names():
            for txn_bytes in self.files[name].iter_transaction_bytes():
                digest.update(txn_bytes)
        return digest.hexdigest()

    def describe(self) -> list[dict[str, Any]]:
        """SHOW BINARY LOGS-shaped rows."""
        return [
            {"Log_name": name, "File_size": self.files[name].size_bytes}
            for name in self.index.names()
        ]

    def last_sequence(self) -> int:
        last = self.index.last()
        return parse_file_sequence(last) if last else 0

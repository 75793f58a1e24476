"""The storage engine: two-phase commit, row locks, WAL, crash recovery.

Models the MyRocks/InnoDB behaviours MyRaft depends on (§3.4, §A.2):

- ``prepare`` writes a durable prepare marker and holds row locks;
- ``commit`` applies buffered changes and releases locks — this is the
  third pipeline stage ("engine commit");
- ``rollback`` discards a prepared transaction "online" (how demotion
  aborts in-flight transactions, §3.3);
- on restart, transactions that were prepared but never committed are
  rolled back (recovery cases A.2(1–3)).

The engine is deliberately synchronous and loop-free; *time* costs of
fsyncs live in the commit pipeline's timing profile. Lock waits surface
through grant callbacks so the server layer can wrap them in futures.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import MySQLError
from repro.mysql.gtid import Gtid, GtidSet
from repro.mysql.tables import Row, RowChange, Table, content_checksum
from repro.raft.types import OpId

LockKey = tuple[str, Any]


class LockTable:
    """Row locks with FIFO waiter queues."""

    def __init__(self) -> None:
        self._owners: dict[LockKey, int] = {}
        self._waiters: dict[LockKey, list[tuple[int, Callable[[], None]]]] = {}

    def try_acquire(self, key: LockKey, xid: int, on_grant: Callable[[], None]) -> bool:
        """Acquire now (True) or queue ``on_grant`` for later (False).
        Re-acquiring a lock you own is a no-op returning True."""
        owner = self._owners.get(key)
        if owner is None:
            self._owners[key] = xid
            return True
        if owner == xid:
            return True
        self._waiters.setdefault(key, []).append((xid, on_grant))
        return False

    def release_all(self, xid: int) -> None:
        """Release every lock held by ``xid``; grants pass FIFO to waiters.
        Stale waits queued by ``xid`` itself (a duplicate enqueue that was
        already satisfied by an earlier grant) are discarded — the lock is
        never handed back to the transaction releasing it."""
        owned = [key for key, owner in self._owners.items() if owner == xid]
        for key in owned:
            del self._owners[key]
            queue = self._waiters.get(key, [])
            while queue:
                next_xid, grant = queue.pop(0)
                if next_xid == xid:
                    continue
                self._owners[key] = next_xid
                grant()
                break
            if not queue:
                self._waiters.pop(key, None)

    def abandon_waits(self, xid: int) -> None:
        """Drop any queued waits for ``xid`` (transaction aborted while
        blocked)."""
        for key in list(self._waiters):
            remaining = [(w, g) for w, g in self._waiters[key] if w != xid]
            if remaining:
                self._waiters[key] = remaining
            else:
                del self._waiters[key]

    def owner_of(self, key: LockKey) -> int | None:
        return self._owners.get(key)

    def held_count(self) -> int:
        return len(self._owners)


class EngineTransaction:
    """A transaction buffered in the engine (not yet visible)."""

    def __init__(self, xid: int) -> None:
        self.xid = xid
        self.changes: list[RowChange] = []
        self.state = "active"  # active → prepared → committed | rolled_back
        self.gtid: Gtid | None = None
        self.opid: OpId | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineTransaction(xid={self.xid}, {self.state}, {len(self.changes)} changes)"


class StorageEngine:
    """In-memory engine whose committed state survives host crashes.

    ``durable`` namespaces used:
      - ``engine.tables``: table name → Table (mutated only at commit);
      - ``engine.meta``: executed GTID set, last committed OpId/xid.

    Everything else — active/prepared transactions, the lock table — is
    volatile and lost on crash, exactly like a real engine's memory.
    """

    def __init__(self, durable_tables: dict[str, Table], durable_meta: dict[str, Any]) -> None:
        self._tables = durable_tables
        self._meta = durable_meta
        self._meta.setdefault("executed_gtids", GtidSet())
        self._meta.setdefault("last_committed_opid", OpId.zero())
        self._meta.setdefault("prepared_xids", set())
        # Dirty-set tracking for incremental snapshots: per-table
        # pk -> index of the last committed op that touched the row.
        # ``dirty_floor`` is the oldest base index deltas remain valid
        # for; ``dirty_intact`` drops to False if a non-replicated commit
        # mutates rows (no opid to stamp), poisoning delta production.
        self._meta.setdefault("dirty_seqs", {})
        self._meta.setdefault("dirty_floor", 0)
        self._meta.setdefault("dirty_intact", True)
        self.locks = LockTable()
        self._transactions: dict[int, EngineTransaction] = {}
        self.commits = 0
        self.rollbacks = 0

    # -- state access ------------------------------------------------------

    def table(self, name: str) -> Table:
        existing = self._tables.get(name)
        if existing is None:
            existing = Table(name)
            self._tables[name] = existing
        return existing

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def executed_gtids(self) -> GtidSet:
        return self._meta["executed_gtids"]

    @property
    def last_committed_opid(self) -> OpId:
        return self._meta["last_committed_opid"]

    def prepared_xids(self) -> set[int]:
        return set(self._meta["prepared_xids"])

    # -- transaction lifecycle ----------------------------------------------

    def begin(self, xid: int) -> EngineTransaction:
        if xid in self._transactions:
            raise MySQLError(f"xid {xid} already active")
        txn = EngineTransaction(xid)
        self._transactions[xid] = txn
        return txn

    def write_row(self, txn: EngineTransaction, table: str, pk: Any, row: Row) -> RowChange:
        self._check_active(txn)
        before = self._effective_image(txn, table, pk)
        change = RowChange(table, pk, before, dict(row))
        txn.changes.append(change)
        return change

    def delete_row(self, txn: EngineTransaction, table: str, pk: Any) -> RowChange:
        self._check_active(txn)
        before = self._effective_image(txn, table, pk)
        if before is None:
            raise MySQLError(f"delete of missing row {table}[{pk!r}]")
        change = RowChange(table, pk, before, None)
        txn.changes.append(change)
        return change

    def _effective_image(self, txn: EngineTransaction, table: str, pk: Any) -> Row | None:
        """Row image as this transaction sees it (its own writes win)."""
        for change in reversed(txn.changes):
            if change.table == table and change.pk == pk:
                return dict(change.after) if change.after is not None else None
        return self.table(table).get(pk)

    def lock_keys(self, txn: EngineTransaction) -> list[LockKey]:
        seen: list[LockKey] = []
        for change in txn.changes:
            key = (change.table, change.pk)
            if key not in seen:
                seen.append(key)
        return seen

    def prepare(self, txn: EngineTransaction) -> None:
        """Write the durable prepare marker. Locks must already be held
        (the server acquires them as writes happen)."""
        self._check_active(txn)
        txn.state = "prepared"
        self._meta["prepared_xids"].add(txn.xid)

    def commit(self, txn: EngineTransaction) -> None:
        """Apply buffered changes durably and release locks (stage 3)."""
        if txn.state != "prepared":
            raise MySQLError(f"commit of {txn.state} transaction {txn.xid}")
        for change in txn.changes:
            table = self.table(change.table)
            if change.after is None:
                table.delete(change.pk)
            else:
                table.put(change.pk, change.after)
        if txn.gtid is not None:
            self.executed_gtids.add(txn.gtid)
        if txn.opid is not None:
            self._meta["last_committed_opid"] = max(self.last_committed_opid, txn.opid)
            dirty = self._meta["dirty_seqs"]
            for change in txn.changes:
                dirty.setdefault(change.table, {})[change.pk] = txn.opid.index
        elif txn.changes:
            self._meta["dirty_intact"] = False
        txn.state = "committed"
        self._meta["prepared_xids"].discard(txn.xid)
        self._transactions.pop(txn.xid, None)
        self.locks.release_all(txn.xid)
        self.commits += 1

    def rollback(self, txn: EngineTransaction) -> None:
        """Discard a transaction (active or prepared) online."""
        if txn.state in ("committed", "rolled_back"):
            raise MySQLError(f"rollback of {txn.state} transaction {txn.xid}")
        txn.state = "rolled_back"
        self._meta["prepared_xids"].discard(txn.xid)
        self._transactions.pop(txn.xid, None)
        self.locks.release_all(txn.xid)
        self.locks.abandon_waits(txn.xid)
        self.rollbacks += 1

    def in_flight(self) -> list[EngineTransaction]:
        return list(self._transactions.values())

    def _check_active(self, txn: EngineTransaction) -> None:
        if txn.state != "active":
            raise MySQLError(f"transaction {txn.xid} is {txn.state}, not active")

    # -- recovery ------------------------------------------------------------

    def recover(self) -> list[int]:
        """Crash recovery: roll back prepared-but-uncommitted transactions
        (A.2 cases 1–3). Returns the xids rolled back.

        Buffered changes died with process memory; only the durable
        prepare markers need clearing.
        """
        rolled_back = sorted(self._meta["prepared_xids"])
        self._meta["prepared_xids"] = set()
        self._transactions.clear()
        self.locks = LockTable()
        self.rollbacks += len(rolled_back)
        return rolled_back

    # -- integrity -----------------------------------------------------------

    def checksum(self) -> int:
        """Deterministic content hash over all tables — the leader/follower
        comparison run continuously during shadow testing (§5.1)."""
        return content_checksum({name: table.rows for name, table in self._tables.items()})

    def row_count(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # -- dirty-set tracking (incremental snapshots) ---------------------------

    @property
    def dirty_floor(self) -> int:
        return self._meta["dirty_floor"]

    def changed_since(self, base_index: int) -> dict[str, dict[Any, Row | None]] | None:
        """Rows touched by commits after ``base_index``, without scanning
        clean tables: ``{table: {pk: row-or-None}}`` where ``None`` marks
        a delete. Returns ``None`` when no valid delta can be derived —
        the base predates the tracking floor, or an untracked commit
        poisoned the set — and the caller ships a full image instead.
        """
        if not self._meta["dirty_intact"] or base_index < self._meta["dirty_floor"]:
            return None
        changes: dict[str, dict[Any, Row | None]] = {}
        for name, seqs in self._meta["dirty_seqs"].items():
            table = self._tables.get(name)
            touched: dict[Any, Row | None] = {}
            for pk, seq in seqs.items():
                if seq <= base_index:
                    continue
                row = table.rows.get(pk) if table is not None else None
                touched[pk] = dict(row) if row is not None else None
            if touched:
                changes[name] = touched
        return changes

    def prune_dirty(self, through_index: int) -> int:
        """Forget dirty entries at or below ``through_index`` and raise the
        floor: deltas can then only be built against bases at or above it.
        Returns the number of entries dropped."""
        if through_index <= self._meta["dirty_floor"]:
            return 0
        dirty = self._meta["dirty_seqs"]
        dropped = 0
        for name in list(dirty):
            seqs = dirty[name]
            stale = [pk for pk, seq in seqs.items() if seq <= through_index]
            for pk in stale:
                del seqs[pk]
            dropped += len(stale)
            if not seqs:
                del dirty[name]
        self._meta["dirty_floor"] = through_index
        return dropped

"""Change-data-capture over MyRaft binlogs (§3).

Preserving the binary log format was a load-bearing decision in the
paper precisely because downstream services — backup/restore and CDC —
tail binlogs. This consumer plays that role: it tails a member's binlog,
emits one change record per row image, and must keep a *gap-free,
duplicate-free, GTID-ordered* stream across failovers and source
switches.

Two safety rules make that work:

- only transactions at/below the member's consensus-commit marker are
  emitted (an uncommitted suffix may be truncated away, §3.3);
- records are deduplicated on GTID when resuming or switching sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ControlPlaneError, LogTruncatedError
from repro.mysql.events import GtidEvent, RowsEvent, TableMapEvent, Transaction
from repro.mysql.gtid import Gtid, GtidSet


@dataclass(frozen=True)
class ChangeRecord:
    """One captured row change."""

    gtid: Gtid
    opid_index: int
    table: str
    pk: Any
    kind: str  # write | update | delete
    after: dict | None


@dataclass
class CdcConsumer:
    """Tails one MyRaft member's binlog (switchable on failover)."""

    cluster: Any
    source: str
    poll_interval: float = 0.05
    records: list = field(default_factory=list)
    seen: GtidSet = field(default_factory=GtidSet)
    duplicates_skipped: int = 0
    _cursor: int = 1
    _running: bool = False

    def start(self, duration: float | None = None) -> None:
        from repro.sim.coro import spawn

        if self._running:
            raise ControlPlaneError("consumer already running")
        self._running = True
        spawn(self.cluster.loop, self._run(duration), label=f"cdc:{self.source}")

    def stop(self) -> None:
        self._running = False

    def switch_source(self, new_source: str) -> None:
        """Re-point at another member (what a CDC service does when its
        upstream dies). The GTID dedup set makes the handover seamless
        even though the new source is tailed from an earlier cursor."""
        self.source = new_source
        self._cursor = 1  # conservative re-read; dedup handles overlap

    # -- the tail loop ---------------------------------------------------------

    def _run(self, duration: float | None):
        loop = self.cluster.loop
        stop_at = loop.now + duration if duration is not None else None
        while self._running and (stop_at is None or loop.now < stop_at):
            made_progress = self._drain_available()
            if not made_progress:
                yield self.poll_interval
            else:
                yield 0.0

    def _drain_available(self) -> bool:
        service = self.cluster.services.get(self.source)
        host = self.cluster.hosts.get(self.source)
        if service is None or host is None or not host.alive:
            return False
        node = getattr(service, "node", None)
        storage = getattr(service, "storage", None)
        if node is None or storage is None:
            return False
        progressed = False
        # Emit only consensus-committed entries: the uncommitted tail may
        # still be truncated by a leadership change.
        while self._cursor <= node.commit_index:
            try:
                entry = storage.entry(self._cursor)
            except LogTruncatedError:
                # The source purged history past our cursor: skip forward
                # (a real consumer would fall back to backups).
                self._cursor = storage.first_index()
                continue
            if entry is None:
                break
            if entry.kind == "data":
                self._emit(entry)
            self._cursor += 1
            progressed = True
        return progressed

    def _emit(self, entry) -> None:
        txn = Transaction.decode(entry.payload)
        gtid_event = txn.gtid_event
        gtid = Gtid(gtid_event.source_uuid, gtid_event.txn_id)
        if gtid in self.seen:
            self.duplicates_skipped += 1
            return
        self.seen.add(gtid)
        table_names: dict[int, str] = {}
        for event in txn.events[1:]:
            if isinstance(event, TableMapEvent):
                table_names[event.table_id] = event.table
            elif isinstance(event, RowsEvent):
                for before, after in event.rows:
                    image = after if after is not None else before
                    self.records.append(
                        ChangeRecord(
                            gtid=gtid,
                            opid_index=entry.opid.index,
                            table=table_names.get(event.table_id, "?"),
                            pk=image.get("id"),
                            kind=event.kind,
                            after=dict(after) if after is not None else None,
                        )
                    )

    # -- invariant checks ----------------------------------------------------------

    def stream_is_ordered(self) -> bool:
        """Records arrive in non-decreasing log order."""
        indexes = [r.opid_index for r in self.records]
        return indexes == sorted(indexes)

    def stream_is_duplicate_free(self) -> bool:
        keys = [(str(r.gtid), r.pk, r.kind, id(r)) for r in self.records]
        gtid_rows = {}
        for record in self.records:
            gtid_rows.setdefault(str(record.gtid), []).append(record)
        # A GTID may carry several row changes, but the same GTID must not
        # be emitted twice (two separate batches).
        spans = []
        for rows in gtid_rows.values():
            positions = [self.records.index(r) for r in rows]
            spans.append((min(positions), max(positions), len(rows)))
        return all(high - low + 1 == count for low, high, count in spans)

    def replay_table(self, table: str) -> dict:
        """Materialize a table from the change stream (the CDC-correctness
        check: must equal the database's own content)."""
        state: dict = {}
        for record in self.records:
            if record.table != table:
                continue
            if record.kind == "delete":
                state.pop(record.pk, None)
            else:
                state[record.pk] = record.after
        return state

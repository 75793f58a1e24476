"""Backup and restore over MyRaft binlogs (§3).

The paper preserved the binary-log format partly because the backup and
restore service depends on it. This module plays that role:

- :func:`take_backup` snapshots a member's engine tables together with
  its executed-GTID set and last-applied OpId — a consistent
  point-in-time image (what a transactional dump produces);
- :func:`restore_member` seeds a (wiped or fresh) member from a backup:
  the engine is loaded from the snapshot, GTID/OpId metadata restored,
  and the applier cursor positioned right after the backup point, so the
  member catches the rest up from the replicated log instead of
  replaying all of history.

This is the realistic bootstrap path for member replacement: automation
restores from last night's backup, Raft ships only the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ControlPlaneError
from repro.plugin.raft_plugin import MyRaftServer
from repro.raft.types import OpId
from repro.snapshot.producer import engine_tables


@dataclass(frozen=True)
class Backup:
    """A consistent point-in-time image of one member's database."""

    source: str
    taken_at: float
    last_opid: OpId
    executed_gtids: str  # canonical text form
    tables: dict = field(default_factory=dict)  # name -> {pk: row}

    def row_count(self) -> int:
        return sum(len(rows) for rows in self.tables.values())


def take_backup(cluster, member: str) -> Backup:
    """Snapshot ``member``'s engine state (consistent read at its current
    last-committed transaction)."""
    service = cluster.services.get(member)
    if not isinstance(service, MyRaftServer):
        raise ControlPlaneError(f"{member!r} is not a database member")
    if not cluster.hosts[member].alive:
        raise ControlPlaneError(f"{member!r} is down")
    engine = service.mysql.engine
    return Backup(
        source=member,
        taken_at=cluster.loop.now,
        last_opid=engine.last_committed_opid,
        executed_gtids=str(engine.executed_gtids),
        tables=engine_tables(engine),
    )


def restore_member(cluster, member: str, backup: Backup) -> MyRaftServer:
    """Re-seed ``member`` from ``backup`` and rejoin the ring.

    The host's disk is wiped (this is a replacement, not a repair), the
    snapshot is loaded as committed engine state, and a fresh MyRaft
    service starts against the ring's current membership, its applier
    resuming from the backup's OpId. Raft then ships only the suffix —
    the leader does NOT need log history below the backup point for this
    member. This is :meth:`MyRaftReplicaset.reimage_member` with a base.
    """
    return cluster.reimage_member(member, base_backup=backup)


@dataclass
class BackupVault:
    """A tiny scheduled-backup registry (most-recent-wins per source)."""

    cluster: Any
    backups: list = field(default_factory=list)

    def take(self, member: str) -> Backup:
        backup = take_backup(self.cluster, member)
        self.backups.append(backup)
        return backup

    def latest(self, source: str | None = None) -> Backup:
        """Most recent backup, optionally restricted to one ``source``
        member. Raises a clear error instead of silently handing back
        another member's image when the filter matches nothing."""
        if not self.backups:
            raise ControlPlaneError("vault is empty")
        candidates = (
            self.backups
            if source is None
            else [b for b in self.backups if b.source == source]
        )
        if not candidates:
            raise ControlPlaneError(
                f"no backup of {source!r} in the vault "
                f"(have: {sorted({b.source for b in self.backups})})"
            )
        return max(candidates, key=lambda b: b.taken_at)

    def restore(self, member: str, source: str | None = None) -> MyRaftServer:
        """Restore ``member`` from the newest vaulted backup (optionally
        pinned to one source member's images). The restored member rejoins
        with the backup as its engine base, so any snapshot transfer it
        subsequently needs negotiates down to a delta of the rows changed
        since the backup — the vault is what makes repeated member
        replacement cheap."""
        return restore_member(self.cluster, member, self.latest(source))

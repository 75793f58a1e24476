"""Callback interface between Raft and its state machine (§3.1).

The paper implements "a separate API for callbacks (Raft calling back
into MySQL)" used to orchestrate promotion/demotion and to notify the
server of log activity. :class:`RaftHooks` is that API: the
``mysql_raft_repl`` plugin subclasses it; the no-op defaults suffice for
pure-protocol tests, and any other RDBMS could specialize its own
handlers (the paper's stated design goal).

:class:`NoSnapshots` is the same kind of default for the snapshot side:
a ring without state transfer keeps it, and
:class:`repro.snapshot.SnapshotManager` replaces it.

Payload factories exist because OpIds are assigned by Raft at append
time but must be stamped *inside* the payload (MySQL stores the OpId in
the GTID event), so Raft asks the state machine to render payload bytes
for a given OpId.
"""

from __future__ import annotations

from typing import Callable

from repro.raft.log_storage import LogEntry
from repro.raft.types import OpId

PayloadFactory = Callable[[OpId], bytes]


class RaftHooks:
    """Default no-op hooks; override what you need."""

    # -- role orchestration (§3.3) -------------------------------------------

    def on_elected_leader(self, term: int, noop_opid: OpId) -> None:
        """Fired when this node wins an election, after the no-op entry is
        appended. The plugin runs promotion orchestration from here."""

    def on_demoted(self, term: int, leader: str | None) -> None:
        """Fired when a leader steps down to follower. The plugin runs
        demotion orchestration (abort in-flight, disable writes, rewire)."""

    def on_transfer_quiesce(self) -> None:
        """Fired when a TransferLeadership passes its mock election and the
        leader must stop accepting new writes so the target can catch up
        to a fixed log tail (§4.3: 'leaders have to be quiesced')."""

    def on_transfer_unquiesce(self) -> None:
        """Fired when a transfer aborts and the (still-)leader should
        resume accepting writes."""

    # -- log lifecycle ---------------------------------------------------------

    def on_entries_appended(self, entries: list[LogEntry], from_leader: bool) -> None:
        """Fired after entries are written to the local log. On followers
        the plugin signals the applier thread (§3.5)."""

    def on_truncated(self, removed: list[LogEntry]) -> None:
        """Fired after a conflicting/uncommitted suffix is removed; the
        plugin strips the GTIDs of removed transactions (§3.3 step 4)."""

    def on_commit_advance(self, opid: OpId) -> None:
        """Fired when the consensus-commit marker moves forward."""

    # -- payload rendering -------------------------------------------------------

    def noop_payload(self, leader: str) -> PayloadFactory:
        """Factory for the leadership-assertion no-op entry's payload."""
        return lambda opid: b""

    def config_payload(self, change: str, subject: str, members_wire: tuple) -> PayloadFactory:
        """Factory for a membership-change entry's payload."""
        return lambda opid: b""


class TimingModel:
    """Time costs charged inside Raft message handling.

    Only the follower-side log append (relay-log write before the ack)
    lives here; leader-side fsync is charged by the commit pipeline's
    flush stage before ``propose`` is called.
    """

    def log_append_delay(self, total_bytes: int) -> float:
        return 0.0


class NoSnapshots:
    """The snapshot side of a ring without state transfer. Nothing ships
    (pure-protocol rings never purge mid-stream), nothing installs, and
    no InstallSnapshot RPC arrives, since only a shipper sends them.
    :class:`repro.snapshot.SnapshotManager` replaces it on services that
    produce or install images."""

    def handle_message(self, src: str, message: object) -> None:
        """Nothing here ships, so no response is awaited."""

    def ship_to(self, peer: str) -> bool:
        return False

    def on_step_down(self) -> None:
        """No transfer sessions to cancel."""

    def stats(self) -> dict:
        return {}

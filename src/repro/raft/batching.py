"""Leader-side proposal staging and batching (§3.4 group commit through Raft).

Concurrent ``propose()`` calls land in a :class:`ProposalAccumulator`
instead of each paying a storage append and a replication fan-out. The
accumulator assigns OpIds eagerly (so callers still get their OpId and
consensus future synchronously) and *stages* the built entries; one
flush then writes every staged entry with a single ``storage.append``
per ``PROPOSE_BATCH_MAX`` chunk, self-acks, resolves what committed and
triggers one replication round for the whole batch. It also owns the
pending-proposal futures: they resolve as the commit point passes them
and fail together when leadership or the process is lost.

Flush discipline — the safety-critical part:

- The batch closes on a *microbatch boundary*: an event scheduled for
  the current loop instant, so a lone writer's commit latency is
  unchanged. Every proposal staged before the boundary joins the batch
  in proposal order — a batch never reorders entries.
- No message handler, heartbeat, or leadership action may ever observe
  staged-but-unappended state: :class:`RaftNode` calls
  ``flush()`` as a barrier at the top of ``handle_message``,
  ``_heartbeat_tick`` and ``transfer_leadership``. Combined with the
  staging window living entirely inside one event-loop instant, nothing
  can change the term mid-batch, so a batch can never span terms.
- The leader's self-ack (``leader_state.last_log_index``) only advances
  at flush: like real group commit, an entry counts toward the quorum
  only once it is durable in the (simulated) WAL.
- A crash discards staged entries along with their pending-proposal
  futures (``discard`` fails them); the flush event is
  incarnation-guarded, so it can never fire into a restarted node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import NotLeaderError
from repro.raft.log_storage import ENTRY_KIND_CONFIG, ENTRY_KIND_NOOP, LogEntry
from repro.raft.types import OpId
from repro.sim.coro import SimFuture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.raft.hooks import PayloadFactory
    from repro.raft.node import RaftNode

# Upper bound on entries in one batched storage append. A flush group
# larger than this is split across consecutive appends (group-commit
# boundaries are preserved: a batch never reorders).
PROPOSE_BATCH_MAX = 256


class ProposalAccumulator:
    """Coalesces a leader's concurrent proposals into batched appends."""

    def __init__(self, node: "RaftNode") -> None:
        self.node = node
        self.staged: list[LogEntry] = []
        # Consensus futures of proposals not yet committed, by log index.
        self.pending: dict[int, SimFuture] = {}
        self._flush_scheduled = False

    # -- staging -----------------------------------------------------------

    def stage(
        self, payload_factory: "PayloadFactory", kind: str, metadata: tuple = ()
    ) -> tuple[OpId, SimFuture]:
        """Assign the next OpId, build the entry, and park it for the
        coming flush. ``node.last_opid`` consults the staged tail, so
        consecutive stage() calls number contiguously."""
        node = self.node
        opid = OpId(node.current_term, node.last_opid.index + 1)
        entry = LogEntry(opid, payload_factory(opid), kind, metadata)
        self.staged.append(entry)
        if kind == ENTRY_KIND_CONFIG:
            # Config entries take effect as soon as they are written
            # (§2.2); staging is "written" from the leader's viewpoint.
            node.config_changes.adopt_entry(entry)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            # Host-bound timer: squelched on crash, and a 0-delay timer
            # fires at the current instant *after* events already queued
            # for it — i.e. after every same-tick propose() has staged.
            node.host.call_after(0.0, self.flush)
        future = SimFuture(node.host.loop, label=f"consensus:{opid}")
        self.pending[opid.index] = future
        return opid, future

    @property
    def last_staged_opid(self) -> OpId | None:
        return self.staged[-1].opid if self.staged else None

    def staged_term_at(self, index: int) -> int | None:
        """Term of a staged entry, or None when ``index`` is not staged."""
        if not self.staged:
            return None
        first = self.staged[0].opid.index
        if first <= index <= self.staged[-1].opid.index:
            return self.staged[index - first].opid.term
        return None

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Make everything staged durable with one storage append per
        ``PROPOSE_BATCH_MAX`` chunk, self-ack it, resolve what that
        commits and run one replication fan-out for the batch.
        Idempotent; also the barrier :class:`RaftNode` runs before
        handling any message."""
        self._flush_scheduled = False
        if not self.staged:
            return
        staged, self.staged = self.staged, []
        node = self.node
        if not node.is_leader:
            # Unreachable through the flush barriers (any step-down
            # flushes first); kept as a safety net for embeddings that
            # drive the node directly.
            self.fail_pending(NotLeaderError(f"{node.name} lost leadership"))
            return
        for offset in range(0, len(staged), PROPOSE_BATCH_MAX):
            node.storage.append(staged[offset : offset + PROPOSE_BATCH_MAX])
            node.metrics["proposal_batches"] += 1
        self._appended(staged)
        node.replicator.replicate_all(force=False)

    def append_noop(self) -> OpId:
        """A new leader's no-op, appended at once rather than staged, so
        the replication round that follows election already carries it."""
        node = self.node
        opid = OpId(node.current_term, node.last_opid.index + 1)
        entry = LogEntry(opid, node.hooks.noop_payload(node.name)(opid), ENTRY_KIND_NOOP)
        node.storage.append([entry])
        self._appended([entry])
        return opid

    def _appended(self, entries: list[LogEntry]) -> None:
        """The leader wrote ``entries``: cache them and self-ack. Like real
        group commit, they count toward the quorum only once the
        (simulated) WAL write finishes — maybe this alone satisfies it."""
        node = self.node
        for entry in entries:
            node.cache.put(entry)
        if node.leader_state is not None:
            node.leader_state.last_log_index = entries[-1].opid.index
        node.hooks.on_entries_appended(entries, from_leader=False)
        node._maybe_advance_commit()

    # -- pending futures ---------------------------------------------------

    def resolve(self, commit_index: int) -> None:
        """Resolve every pending proposal the commit point now covers."""
        ready = [index for index in self.pending if index <= commit_index]
        for index in sorted(ready):
            future = self.pending.pop(index)
            term = self.node._term_at(index) or 0
            future.resolve_if_pending(OpId(term, index))

    def fail_pending(self, error: Exception) -> None:
        pending, self.pending = self.pending, {}
        for future in pending.values():
            future.fail_if_pending(error)

    def discard(self, error: Exception) -> None:
        """Crash path: staged entries were never durable; drop them and
        fail every pending future."""
        self.staged.clear()
        self._flush_scheduled = False
        self.fail_pending(error)

"""Leader-side proposal batching (§3.4 group commit through Raft).

Concurrent ``propose()`` calls land in a :class:`ProposalAccumulator`
instead of each paying a storage append and a replication fan-out. The
accumulator assigns OpIds eagerly (so callers still get their OpId
synchronously) and *stages* the built
entries; one flush then writes every staged entry with a single
``storage.append`` per ``PROPOSE_BATCH_MAX`` chunk and triggers one
replication round for the whole batch.

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
  futures (``on_crash`` fails them); the flush event is
  incarnation-guarded, so it can never fire into a restarted node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.raft.log_storage import ENTRY_KIND_CONFIG, LogEntry
from repro.raft.types import OpId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.raft.hooks import PayloadFactory
    from repro.raft.node import RaftNode


class ProposalAccumulator:
    """Coalesces a leader's concurrent proposals into batched appends."""

    def __init__(self, node: "RaftNode") -> None:
        self.node = node
        self.staged: list[LogEntry] = []
        self._flush_scheduled = False

    # -- staging -----------------------------------------------------------

    def stage(
        self, payload_factory: "PayloadFactory", kind: str, metadata: tuple = ()
    ) -> OpId:
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
            node._adopt_config_from(entry)
        self._schedule_flush()
        return opid

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

    def _schedule_flush(self) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        # Host-bound timer: squelched on crash, and a 0-delay timer fires
        # at the current instant *after* events already queued for it —
        # i.e. after every same-tick propose() has staged.
        self.node.host.call_after(0.0, self.flush)

    def flush(self) -> None:
        """Append everything staged and fan it out. Idempotent; also the
        barrier :class:`RaftNode` runs before handling any message."""
        self._flush_scheduled = False
        if not self.staged:
            return
        staged, self.staged = self.staged, []
        self.node._commit_staged(staged)

    def discard(self) -> None:
        """Crash path: staged entries were never durable; drop them."""
        self.staged.clear()
        self._flush_scheduled = False

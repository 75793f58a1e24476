"""Graceful leader change: TransferLeadership, the §4.3 mock election,
catch-up, TimeoutNow and the witness hand-off (§4.1).

A transfer runs in two phases. In *mock* the target runs a mock vote
round against the leader's tail, with nothing quiesced yet; in
*catch-up* the leader quiesces writes, replicates until the target holds
its whole log, and sends TimeoutNow. ``MOCK_ELECTION`` (off is the
paper's ablation) only picks the first phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NotLeaderError, RaftError
from repro.raft.messages import (
    MockElectionRequest,
    MockElectionResult,
    RequestVoteRequest,
    RequestVoteResponse,
    TimeoutNowRequest,
)
from repro.sim.coro import SimFuture

# Run a mock election before TransferLeadership (§4.3); off is the
# paper's ablation.
MOCK_ELECTION = True
# How long the leader waits for the target's mock-election verdict.
MOCK_ELECTION_TIMEOUT = 1.0
# The target's own deadline for its mock round: inside the leader's, so
# a round that gathers no quorum still answers "lost" in time.
MOCK_ROUND_TIMEOUT = MOCK_ELECTION_TIMEOUT * 0.8
# After quiescing for a transfer, how long to wait for the target to
# catch up before aborting and restoring write availability.
TRANSFER_CATCHUP_TIMEOUT = 5.0


@dataclass
class PendingTransfer:
    """The leader's one transfer in progress."""

    future: SimFuture
    target: str
    term: int
    phase: str  # "mock" (not quiesced yet) or "catch-up" (quiesced)


class LeadershipTransfer:
    """Both sides of a transfer: the leader's, and the target's mock
    round and TimeoutNow. Rebuilt per incarnation; like
    :class:`~repro.raft.election.Election` it acts only through ``send``
    and ``call_after`` (it reads no clock)."""

    def __init__(self, node: Any, send: Callable, call_after: Callable) -> None:
        self.node = node
        self.send = send
        self.call_after = call_after
        self.pending: PendingTransfer | None = None
        # As a transfer target: the mock round in progress and whom to
        # answer.
        self._mock_tally = None
        self._mock_reply_to: str | None = None
        self._crashed = False

    def _live(self, target: str | None = None, term: int | None = None) -> PendingTransfer | None:
        """The transfer in progress — only one to ``target`` and while
        the node is still in ``term``, when given — or None."""
        record = self.pending
        if record is None or record.future.done():
            return None
        if target is not None and record.target != target:
            return None
        if term is not None and self.node.current_term != term:
            return None
        return record

    # -- the leader side ------------------------------------------------------------

    def start(self, target: str, future: SimFuture) -> SimFuture:
        """Graceful promotion (§2.2): resolves ``future`` True once
        TimeoutNow is sent, False when the transfer is abandoned."""
        node = self.node
        if not node.is_leader or node.leader_state is None:
            refusal = NotLeaderError(f"{node.name} is not leader")
        elif target == node.name or target not in node.membership:
            refusal = RaftError(f"invalid transfer target {target!r}")
        elif not node.membership.member(target).is_voter:
            refusal = RaftError(f"transfer target {target!r} is not a voter")
        elif self._live() is not None:
            refusal = RaftError("a transfer is already in progress")
        else:
            refusal = None
        if refusal is not None:
            future.fail(refusal)
            return future
        node.metrics["transfers_initiated"] += 1
        mock = MOCK_ELECTION
        record = self.pending = PendingTransfer(
            future, target, node.current_term, "mock" if mock else "catch-up"
        )
        node._trace("raft.transfer_started", target=target)
        if mock:
            self._request_mock_election(record)
        else:
            self._catch_up(record)
        return future

    def _request_mock_election(self, record: PendingTransfer) -> None:
        """§4.3: before quiescing anything, ask the target to run a mock
        pre-election with a snapshot of our cursor."""
        node = self.node
        node.metrics["mock_elections"] += 1
        cursor = node.last_opid
        node._trace("raft.mock_election_requested", target=record.target, cursor=str(cursor))
        self.send(
            record.target,
            MockElectionRequest(term=node.current_term, leader=node.name, cursor=cursor),
        )
        self.call_after(MOCK_ELECTION_TIMEOUT, self._mock_election_expired, record)

    def _mock_election_expired(self, armed: PendingTransfer) -> None:
        live = self._live(armed.target, armed.term)
        if live is not None and live.phase == "mock":
            self.node._trace("raft.mock_election_timeout", target=armed.target)
            self._finish(False)

    def on_mock_result(self, result: MockElectionResult) -> None:
        record = self._live(result.candidate)
        if record is None:
            return
        self.node._trace(
            "raft.mock_election_result", target=result.candidate, won=result.won,
            reason=result.reason,
        )
        if result.won:
            record.phase = "catch-up"
            self._catch_up(record)
        else:
            self._finish(False)

    def _catch_up(self, record: PendingTransfer) -> None:
        """Mock round passed (or disabled): quiesce, replicate until the
        target is caught up to the now-fixed tail, then TimeoutNow."""
        node = self.node
        if not node.is_leader or node.leader_state is None:
            self._finish(False)  # lost leadership mid-transfer
            return
        # Quiesce: stop accepting new writes so the tail stops moving.
        # This is where graceful-promotion client downtime begins (§4.3).
        node.hooks.on_transfer_quiesce()
        # A leader with a live transfer is still in the transfer's term:
        # stepping down ends the transfer.
        self.call_after(TRANSFER_CATCHUP_TIMEOUT, self._catchup_expired, record)
        node.replicator.replicate([record.target], force=True)
        self.maybe_complete(record.target)

    def _catchup_expired(self, armed: PendingTransfer) -> None:
        if self._live(armed.target, armed.term) is not None:
            self.node._trace("raft.transfer_catchup_timeout", target=armed.target)
            self._finish(False)

    def maybe_complete(self, acked_peer: str) -> None:
        """``acked_peer`` answered: if it is the caught-up target of a
        transfer in its catch-up phase, send it TimeoutNow."""
        node = self.node
        record = self._live(acked_peer)
        if record is None or node.leader_state is None:
            return
        if self._mock_tally is not None or record.phase == "mock":
            return
        if node.leader_state.match_of(acked_peer) >= node.last_opid.index:
            node._trace("raft.timeout_now_sent", target=acked_peer)
            self.send(acked_peer, TimeoutNowRequest(term=node.current_term, leader=node.name))
            self._finish(True)

    def abort(self) -> None:
        """The leader stepped down: a transfer in progress failed as such
        (a new leader emerged some other way)."""
        if self._live() is not None:
            self._finish(False)

    def _finish(self, ok: bool) -> None:
        node = self.node
        record, self.pending = self.pending, None
        if not ok and node.is_leader and record.phase == "catch-up":
            # The transfer failed but we are still the leader: resume.
            node.hooks.on_transfer_unquiesce()
        record.future.resolve_if_pending(ok)

    def on_crash(self, error: Exception) -> None:
        self._crashed = True
        if self.pending is not None:
            self.pending.future.fail_if_pending(error)

    # -- the witness hand-off (§4.1) --------------------------------------------------

    def on_elected(self) -> None:
        """A witness that wins leads only until a database can take over:
        from here on, acks drive the hand-off."""
        node = self.node
        member = node.membership.member(node.name)
        if member is not None and member.is_witness:
            node.leader_state.handoff_tried = set()

    def witness_handoff(self, acker: str | None = None) -> None:
        """Hand a witness's leadership to the most caught-up database that
        has answered this term and not yet failed an attempt (§4.1).

        Runs when a database acks an entry of this term (``acker``) —
        the first such ack is the first moment a live, caught-up target is
        known — and again the moment an attempt fails. A member that has
        not answered, such as the crashed primary that caused the
        election, is never a target. Once every answering database has
        been tried, the next ack starts the round again."""
        node = self.node
        state = node.leader_state
        if state is None or state.handoff_tried is None:
            return
        if self._live() is not None:
            return
        databases = [m.name for m in node.membership.voters() if m.has_storage_engine]
        if acker is not None and acker not in databases:
            return
        tried = state.handoff_tried
        target = state.most_caught_up_peer([n for n in databases if n not in tried])
        if target is None:
            tried.clear()
            return
        tried.add(target)
        node.metrics["handoff_attempts"] += 1
        node._trace("raft.witness_handoff", target=target)

        def settle(completed: SimFuture) -> None:
            if node.leader_state is not state or self._crashed:
                return
            if completed.exception() is None and completed.result():
                state.handoff_tried = None  # TimeoutNow sent: the target's turn
            else:
                self.witness_handoff()

        node.transfer_leadership(target).add_done_callback(settle)

    # -- the target side ----------------------------------------------------------------

    def on_mock_request(self, src: str, request: MockElectionRequest) -> None:
        """We are the intended new leader: run a mock vote round."""
        node = self.node
        if request.term < node.current_term:
            self.send(src, MockElectionResult(
                term=node.current_term, candidate=node.name, won=False, reason="stale term",
            ))
            return
        election = node.election
        tally = self._mock_tally = election.open_tally(request.term + 1)
        self._mock_reply_to = src
        election.broadcast(RequestVoteRequest(
            term=request.term + 1,
            candidate=node.name,
            last_opid=request.cursor,
            is_pre_vote=True,
            is_mock=True,
            cursor=request.cursor,
        ))
        self.call_after(MOCK_ROUND_TIMEOUT, self._mock_round_expired)
        if election.would_elect(tally):
            self._finish_mock_round(won=True, reason="quorum")

    def on_mock_vote(self, resp: RequestVoteResponse) -> None:
        # Same knowledge rules as a real tally, so the mock verdict
        # predicts what the target's real election would conclude.
        tally = self._mock_tally
        if tally is not None and self.node.election.tally_wins(tally, resp):
            self._finish_mock_round(won=True, reason="quorum")

    def _mock_round_expired(self) -> None:
        if self._mock_tally is not None and self._mock_reply_to is not None:
            self._finish_mock_round(won=False, reason="mock votes timed out")

    def _finish_mock_round(self, won: bool, reason: str) -> None:
        reply_to = self._mock_reply_to
        self._mock_tally = None
        self._mock_reply_to = None
        if reply_to is not None:
            self.send(reply_to, MockElectionResult(
                term=self.node.current_term, candidate=self.node.name, won=won, reason=reason,
            ))

    def on_timeout_now(self, src: str, request: TimeoutNowRequest) -> None:
        node = self.node
        if request.term < node.current_term or not node._is_voter:
            return
        node._trace("raft.timeout_now_received", from_leader=src)
        node.start_election(is_transfer=True)

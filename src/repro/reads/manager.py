"""ReadIndex reads: the node's entry point, and the leader's rounds.

:meth:`ReadManager.read_index` starts every read; the leader answers a
non-leader's fetch through the same probe-round state machine:

- ``acquire_read_index()`` hands out a future that resolves to a
  *confirmed* read index. Reads arriving while a round is in flight are
  queued for the **next** round — they must not join the running one,
  whose read index was captured before they were invoked.
- One round = capture ``commit_index``, send one ``ReadProbeRequest`` to
  every voter the policy's data quorum counts (the leader's region under
  single-region-dynamic: no probe crosses the WAN), and wait for a
  **data quorum** of same-term acks (leader's self-ack included). The
  data quorum intersects every possible election quorum (FlexiRaft
  §4.1), so a full tally proves no newer leader had been acknowledged
  when the probes were sent.
- On confirmation every waiter resolves with the round's read index,
  and a queued next round starts immediately.

All state is volatile: the node rebuilds the manager on restart and
fails every waiter on step-down.
"""

from __future__ import annotations

from repro.errors import NotLeaderError
from repro.raft.messages import (
    ReadIndexRequest,
    ReadIndexResponse,
    ReadProbeRequest,
    ReadProbeResponse,
)
from repro.raft.replication import APPEND_RETRY_INTERVAL
from repro.reads.fetch import ReadIndexFetch
from repro.sim.coro import SimFuture


class _ProbeRound:
    __slots__ = ("round_id", "term", "read_index", "sent_at", "acks", "waiters")

    def __init__(self, round_id, term, read_index, sent_at, waiters):
        self.round_id = round_id
        self.term = term
        self.read_index = read_index
        self.sent_at = sent_at  # loop time, for resend pacing
        self.acks: set = set()
        self.waiters: list = waiters


class ReadManager:
    """Created per node in ``_init_volatile``; driven by the node."""

    def __init__(self, node) -> None:
        self.node = node
        self._round: _ProbeRound | None = None
        self._queue: list[SimFuture] = []
        self._next_round_id = 1
        self.fetches = ReadIndexFetch(node)

    def read_index(self) -> SimFuture:
        """A future resolving to a quorum-confirmed read index, wherever
        the node sits in the ring: one batched probe round at the
        leader, one fetch elsewhere."""
        if not self.node.is_leader:
            return self.fetches.fetch()
        return self.acquire_read_index()

    # ------------------------------------------------------------- leader API

    def acquire_read_index(self) -> SimFuture:
        """A future resolving to a quorum-confirmed read index (or failing
        with :class:`NotLeaderError` on step-down)."""
        node = self.node
        future = SimFuture(node.host.loop, label=f"read-index:{node.name}")
        if not node.is_leader:
            future.fail(NotLeaderError(f"{node.name} is not leader"))
            return future
        self._queue.append(future)
        if self._round is None:
            self._start_round()
        return future

    def keepalive(self) -> None:
        """Heartbeat-tick driver: a stalled round (dropped probes) is
        re-sent."""
        if not self.node.is_leader:
            return
        if self._round is None:
            if self._queue:
                self._start_round()
        elif self.node.host.loop.now - self._round.sent_at >= APPEND_RETRY_INTERVAL:
            self._send_probes(resend=True)

    # ------------------------------------------------------------ round logic

    def _start_round(self) -> None:
        node = self.node
        round_ = _ProbeRound(
            round_id=self._next_round_id,
            term=node.current_term,
            read_index=node.commit_index,
            sent_at=node.host.loop.now,
            waiters=self._queue,
        )
        self._next_round_id += 1
        self._queue = []
        self._round = round_
        round_.acks.add(node.name)
        node.metrics["read_probe_rounds"] += 1
        self._send_probes(resend=False)
        # A self-sufficient quorum (single-node / forced) confirms at once.
        self._check_quorum()

    def _send_probes(self, resend: bool) -> None:
        node = self.node
        round_ = self._round
        if round_ is None:
            return
        request = ReadProbeRequest(
            term=round_.term, leader=node.name, round_id=round_.round_id
        )
        # Only the voters the tally counts: nobody else's ack can decide it.
        for voter in node._effective_policy().data_quorum_voters(node.name, node.membership):
            if voter != node.name and voter not in round_.acks:
                node.host.send(voter, request)
        if resend:
            round_.sent_at = node.host.loop.now

    def on_probe_response(self, response: ReadProbeResponse) -> None:
        node = self.node
        if response.term > node.current_term:
            node._step_down(response.term, leader=None)
            return
        if response.success:
            self.on_ack(response.voter, response.round_id, response.term)

    def answer_fetch(self, request: ReadIndexRequest) -> None:
        """Answer a non-leader's fetch once the next probe round
        confirms; refuse if not leader."""
        node = self.node

        def respond(read_index: int | None) -> None:
            node.host.send(request.requester, ReadIndexResponse(
                term=node.current_term, leader=node.name, request_id=request.request_id,
                read_index=read_index or 0, success=read_index is not None,
            ))

        if not node.is_leader:
            respond(None)
            return

        def on_confirmed(done: SimFuture) -> None:
            if node.host.alive:
                respond(None if done.exception() is not None else done.result())

        self.acquire_read_index().add_done_callback(on_confirmed)

    def on_ack(self, voter: str, round_id: int, term: int) -> None:
        round_ = self._round
        node = self.node
        if (
            round_ is None
            or round_.round_id != round_id
            or term != round_.term
            or term != node.current_term
            or not node.is_leader
        ):
            return
        round_.acks.add(voter)
        self._check_quorum()

    def _check_quorum(self) -> None:
        round_ = self._round
        node = self.node
        if round_ is None:
            return
        if not node._effective_policy().data_quorum_satisfied(
            node.name, frozenset(round_.acks), node.membership
        ):
            return
        self._round = None
        node.metrics["read_rounds_confirmed"] += 1
        for waiter in round_.waiters:
            waiter.resolve_if_pending(round_.read_index)
        if self._queue:
            self._start_round()

    def fail_all(self, error: Exception) -> None:
        """Step-down / crash: every pending barrier fails cleanly."""
        round_, self._round = self._round, None
        queue, self._queue = self._queue, []
        waiters = (round_.waiters if round_ is not None else []) + queue
        for waiter in waiters:
            waiter.fail_if_pending(error)

    @property
    def pending(self) -> int:
        inflight = len(self._round.waiters) if self._round is not None else 0
        return inflight + len(self._queue)

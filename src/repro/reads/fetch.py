"""A non-leader's ReadIndex fetch, sent straight to the leader.

The request is header-sized and no hop could batch it, so a relay up
the region tree would cross the WAN once all the same. Fetches batch
like probe rounds: one in flight per node, and a read arriving while
one is in flight waits for the *next* — the running fetch's index may
predate this read. A fetch is re-sent every ``APPEND_RETRY_INTERVAL``
while callers still wait on it; the callers carry the overall timeout.
"""

from __future__ import annotations

from repro.errors import NotLeaderError
from repro.raft.messages import ReadIndexRequest, ReadIndexResponse
from repro.raft.replication import APPEND_RETRY_INTERVAL
from repro.sim.coro import SimFuture


class ReadIndexFetch:
    """Created per node in ``_init_volatile``; driven by the node."""

    def __init__(self, node) -> None:
        self.node = node
        self._waiters: list[SimFuture] = []
        self._queue: list[SimFuture] = []  # for the next fetch
        self._inflight = False
        self._request_id = 0

    def fetch(self) -> SimFuture:
        """A future resolving to the leader's confirmed read index (or
        failing with :class:`NotLeaderError`)."""
        node = self.node
        future = SimFuture(node.host.loop, label=f"read-fetch:{node.name}")
        if node.leader_id is None or node.leader_id == node.name:
            future.fail(NotLeaderError(f"{node.name} knows no leader"))
            return future
        self._queue.append(future)
        if not self._inflight:
            self._start()
        return future

    def fail_all(self, error: Exception) -> None:
        waiters = self._waiters + self._queue
        self._waiters, self._queue = [], []
        self._inflight = False
        for waiter in waiters:
            waiter.fail_if_pending(error)

    def on_response(self, response: ReadIndexResponse) -> None:
        node = self.node
        if response.term > node.current_term:
            node._step_down(response.term, leader=response.leader if response.success else None)
        if not self._inflight or response.request_id != self._request_id:
            return
        self._inflight = False
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if response.success:
                waiter.resolve_if_pending(response.read_index)
            else:
                waiter.fail_if_pending(
                    NotLeaderError(f"{response.leader} is not (or no longer) leader")
                )
        if self._queue:
            self._start()

    def _start(self) -> None:
        self._waiters, self._queue = self._queue, []
        self._request_id += 1
        self._inflight = True
        self._send(self._request_id)

    def _send(self, request_id: int) -> None:
        node = self.node
        if not self._inflight or request_id != self._request_id:
            return
        self._waiters = [w for w in self._waiters if not w.done()]
        leader = node.leader_id
        if leader is None or leader == node.name:
            self.fail_all(NotLeaderError(f"{node.name} knows no leader"))
            return
        if not self._waiters:  # every caller gave up (timed out)
            self._inflight = False
            if self._queue:
                self._start()
            return
        node.metrics["read_index_fetches"] += 1
        node.host.send(
            leader,
            ReadIndexRequest(term=node.current_term, requester=node.name, request_id=request_id),
        )
        node.host.call_after(APPEND_RETRY_INTERVAL, self._send, request_id)

"""A member's half of the region tree, driven without a Host or an
EventLoop: a recording ``send``, a list-backed ``call_after``, a manual
clock and an in-memory log (DESIGN.md §15)."""

from types import SimpleNamespace

from repro.raft.log_storage import InMemoryLogStorage, LogEntry
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse
from repro.raft.proxy import PROXY_WAIT_TIMEOUT, ProxyHop
from repro.raft.types import OpId

WAIT = PROXY_WAIT_TIMEOUT
TERM = 3


class Harness:
    """One ProxyHop on a member called ``head`` whose log holds entries
    ``1..last``; the leader is ``L``."""

    def __init__(self, last: int) -> None:
        self.clock = 0.0
        self.sent: list = []  # (dst, message)
        self.timers: list = []  # [fire_at, callback, args]
        self.storage = InMemoryLogStorage()
        self.append(1, last)
        self.metrics = {"proxy_forwards": 0, "proxy_degrades": 0,
                        "acks_folded": 0, "folds_expired": 0}
        node = SimpleNamespace(
            name="head", metrics=self.metrics, storage=self.storage,
            _entry_for_read=self.storage.entry, _trace=lambda kind, **fields: None,
        )
        self.hop = ProxyHop(node, self.send, self.call_after, lambda: self.clock)

    def send(self, dst, message) -> None:
        self.sent.append((dst, message))

    def call_after(self, delay, callback, *args) -> None:
        self.timers.append([self.clock + delay, callback, args])

    def advance(self, to: float) -> None:
        """Move the clock to ``to``, firing every timer due by then."""
        while True:
            due = [t for t in self.timers if t[0] <= to]
            if not due:
                break
            timer = min(due, key=lambda t: t[0])
            self.timers.remove(timer)
            self.clock = timer[0]
            timer[1](*timer[2])
        self.clock = to

    def append(self, first: int, last: int) -> None:
        self.storage.append([LogEntry(OpId(TERM, i), b"E%d" % i) for i in range(first, last + 1)])

    @staticmethod
    def proxy_op(first: int, last: int, dest: str = "m") -> AppendEntriesRequest:
        return AppendEntriesRequest(
            term=TERM, leader="L", prev_opid=OpId(TERM, first - 1), commit_opid=OpId(TERM, 1),
            proxy_opids=tuple(OpId(TERM, i) for i in range(first, last + 1)), final_dest=dest,
        )

    @staticmethod
    def window(last: int, riders=("r1", "r2")) -> AppendEntriesRequest:
        return AppendEntriesRequest(
            term=TERM, leader="L", prev_opid=OpId(TERM, last - 1), commit_opid=OpId(TERM, 1),
            entries=(LogEntry(OpId(TERM, last), b"x"),), final_dest="head", fanout=riders,
        )

    @staticmethod
    def ack(follower: str, last: int) -> AppendEntriesResponse:
        return AppendEntriesResponse(
            term=TERM, follower=follower, success=True, last_opid=OpId(TERM, last), leader="L"
        )


class TestProxyOps:
    def test_a_purged_proxy_op_degrades_at_once(self):
        h = Harness(last=10)
        h.storage.purge_below(5)
        h.hop.on_proxy_op(h.proxy_op(3, 6))
        [(dst, heartbeat)] = h.sent
        assert dst == "m" and heartbeat.is_heartbeat and heartbeat.via == "head"
        assert heartbeat.degraded_through == h.storage.first_index() - 1 == 4
        assert h.timers == [] and h.metrics["proxy_degrades"] == 1

    def test_a_proxy_op_ahead_of_the_log_is_reconstituted_when_the_log_grows(self):
        h = Harness(last=5)
        request = h.proxy_op(6, 7)
        h.hop.on_proxy_op(request)
        assert h.sent == [] and len(h.timers) == 1
        h.append(6, 6)
        h.hop.on_log_grew()
        assert h.sent == []  # 7 is still missing
        h.append(7, 7)
        h.hop.on_log_grew()
        [(dst, forwarded)] = h.sent
        assert dst == "m" and forwarded.via == "head" and not forwarded.is_proxy_op
        assert [e.opid.index for e in forwarded.entries] == [6, 7]
        assert h.metrics["proxy_forwards"] == 1
        h.advance(WAIT)  # the wait's deadline finds nothing to degrade
        assert len(h.sent) == 1 and h.metrics["proxy_degrades"] == 0

    def test_a_proxy_op_the_log_never_reaches_degrades_at_the_wait(self):
        h = Harness(last=5)
        h.hop.on_proxy_op(h.proxy_op(6, 8))
        h.append(6, 6)
        h.hop.on_log_grew()
        h.advance(WAIT - 0.001)
        assert h.sent == []
        h.advance(WAIT)
        [(dst, heartbeat)] = h.sent
        assert dst == "m" and heartbeat.is_heartbeat and heartbeat.degraded_through == 8
        assert h.metrics["proxy_degrades"] == 1


class TestFolds:
    def test_open_folds_arm_one_timer_per_head(self):
        h = Harness(last=5)
        windows = [h.window(last) for last in (6, 7, 8)]
        for window in windows:
            h.hop.forward(window)
            h.advance(h.clock + 0.01)
        assert len(h.timers) == 1 and h.metrics["proxy_forwards"] == 6
        assert {(dst, m.via) for dst, m in h.sent} == {("r1", "head"), ("r2", "head")}
        h.sent.clear()
        # The head answers its own windows: held for the riders.
        for window in windows:
            h.hop.answer(window, h.ack("head", window.entries[-1].opid.index))
        assert h.sent == []
        # Both riders ack the first window: it goes out folded, at once.
        h.hop.relay(h.ack("r1", 6))
        h.hop.relay(h.ack("r2", 6))
        [(dst, folded)] = h.sent
        assert dst == "L" and folded.follower == "head" and folded.riders == ("r1", "r2")
        # The other two expire one after the other on the same one timer,
        # re-armed for the oldest fold still waiting.
        h.advance(0.01 + WAIT)
        assert [m.last_opid.index for _dst, m in h.sent[1:]] == [7]
        assert len(h.timers) == 1
        h.advance(0.02 + WAIT)
        assert [m.last_opid.index for _dst, m in h.sent[1:]] == [7, 8]
        assert h.timers == [] and h.metrics["folds_expired"] == 2

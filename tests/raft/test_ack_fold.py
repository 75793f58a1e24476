"""A head folds its riders' acks into its own (DESIGN.md §15, rule 1).

Riders ack their head over the LAN; the head's ack, held until every
rider has answered or ``PROXY_WAIT_TIMEOUT`` has passed, crosses the WAN
once and names the riders it folded. Anything the fold cannot vouch for
travels alone.
"""

from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.messages import (
    FANOUT_DEST_BYTES,
    RPC_HEADER_BYTES,
    AppendEntriesRequest,
    AppendEntriesResponse,
)
from repro.raft.proxy import PROXY_WAIT_TIMEOUT, AckFolds
from repro.raft.replication import APPEND_RETRY_INTERVAL
from repro.raft.types import OpId

from tests.raft.test_proxy import WAN_RTT, proxy_ring, write_stream

REGION = {"db1": "r1", "lt1a": "r1", "lt1b": "r1", "db2": "r2", "lt2a": "r2", "lt2b": "r2"}


def streaming_ring():
    # Single-region-dynamic: commits need no ack from r2, so writes keep
    # committing whatever its members do.
    ring = proxy_ring(policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
    leader = ring.bootstrap("db1")
    ring.run(1.0)
    write_stream(ring, 0.2)
    ring.run(WAN_RTT)
    return ring, leader


def record_acks(ring):
    """``(time, src, dst, response)`` of every AppendEntriesResponse sent
    from now on."""
    acks = []
    deliver = ring.net.send

    def send(src, dst, message):
        if isinstance(message, AppendEntriesResponse):
            acks.append((ring.loop.now, src, dst, message))
        deliver(src, dst, message)

    ring.net.send = send
    return acks


def wan(acks):
    return [(t, src, m) for t, src, dst, m in acks if REGION[src] != REGION[dst]]


def write_one(ring):
    opid, _future = ring.propose_on_leader(b"E" * 500)
    return opid.index


def matched(leader, name):
    return leader.leader_state.peers[name].match_index


class TestTheFold:
    def test_a_head_folds_its_riders_acks_into_one_wan_ack(self):
        ring, leader = streaming_ring()
        db2 = ring.node("db2")
        folded_before = db2.metrics["acks_folded"]
        acks = record_acks(ring)
        index = write_one(ring)
        ring.run(WAN_RTT + 0.01)
        # The riders answer their head over the LAN, not the leader.
        assert {(src, dst) for _t, src, dst, m in acks if src in ("lt2a", "lt2b")} == {
            ("lt2a", "db2"), ("lt2b", "db2")
        }
        # One WAN ack for the region, naming both riders: a member id
        # each instead of a header each.
        [(_t, src, folded)] = wan(acks)
        assert src == "db2" and folded.follower == "db2" and folded.success
        assert sorted(folded.riders) == ["lt2a", "lt2b"]
        assert folded.wire_size == RPC_HEADER_BYTES + 2 * FANOUT_DEST_BYTES == 96
        assert folded.last_opid.index == index
        # The leader applies it to the head and to every rider.
        assert {matched(leader, n) for n in ("db2", "lt2a", "lt2b")} == {index}
        assert db2.stats()["proxy"]["acks_folded"] == folded_before + 2
        assert db2.stats()["proxy"]["folds_expired"] == 0

    def test_a_write_stream_costs_the_region_one_wan_ack_per_window(self):
        ring, leader = streaming_ring()
        acks = record_acks(ring)
        indexes = write_stream(ring, 0.5)
        ring.run(WAN_RTT + 0.01)
        answers = wan(acks)
        assert {src for _t, src, _m in answers} == {"db2"}
        assert all(sorted(m.riders) == ["lt2a", "lt2b"] for _t, _src, m in answers if m.last_opid.index > indexes[0])
        assert {matched(leader, n) for n in ("db2", "lt2a", "lt2b")} == {indexes[-1]}


class TestWhatTravelsAlone:
    def test_a_riders_reject_travels_alone_and_releases_the_heads_ack(self):
        ring, leader = streaming_ring()
        # lt2a loses its tail; the leader still believes it level, so it
        # rides on the next window and rejects it.
        lt2a = ring.node("lt2a")
        lt2a.storage.truncate_from(lt2a.last_opid.index)
        acks = record_acks(ring)
        sent_at = ring.loop.now
        write_one(ring)
        ring.run(WAN_RTT + 0.01)
        answers = wan(acks)
        rejects = [m for _t, _src, m in answers if not m.success]
        assert [(m.follower, m.riders) for m in rejects] == [("lt2a", ())]
        [(t, folded)] = [(t, m) for t, _src, m in answers if m.success and m.follower == "db2"]
        # The reject answered lt2a's part: the head did not sit out its
        # wait for it.
        assert folded.riders == ("lt2b",)
        assert t - sent_at < WAN_RTT / 2 + PROXY_WAIT_TIMEOUT / 2
        assert ring.node("db2").metrics["folds_expired"] == 0
        ring.run(WAN_RTT * 2)
        assert matched(leader, "lt2a") == leader.last_opid.index

    def test_a_late_riders_ack_is_relayed_not_dropped(self):
        ring, leader = streaming_ring()
        wait = PROXY_WAIT_TIMEOUT
        acks = record_acks(ring)
        sent_at = ring.loop.now
        index = write_one(ring)
        ring.run(WAN_RTT / 2 - 0.0005)  # the window reaches db2 next
        ring.host("lt2a").pause_for(2 * wait)  # its ack misses the fold
        ring.run(WAN_RTT / 2 + 3 * wait)
        answers = wan(acks)
        [(t_head, folded)] = [(t, m) for t, _src, m in answers if m.follower == "db2"]
        assert folded.riders == ("lt2b",)
        assert wait <= t_head - (sent_at + WAN_RTT / 2) <= wait + 0.002
        [(t_late, late)] = [(t, m) for t, _src, m in answers if m.follower == "lt2a"]
        assert late.success and late.riders == () and t_late > t_head
        assert matched(leader, "lt2a") == index
        assert ring.node("db2").stats()["proxy"]["folds_expired"] == 1


class TestFaults:
    def test_a_crashed_rider_holds_the_heads_ack_one_wait_then_is_silenced(self):
        ring, leader = streaming_ring()
        wait, retry = PROXY_WAIT_TIMEOUT, APPEND_RETRY_INTERVAL
        ring.host("lt2a").crash()
        acks = record_acks(ring)
        sent_at = ring.loop.now
        index = write_one(ring)
        ring.run(WAN_RTT + wait)
        [(t, _src, folded)] = wan(acks)
        assert folded.riders == ("lt2b",) and folded.last_opid.index == index
        assert t - (sent_at + WAN_RTT / 2) <= wait + 0.002
        # The retry silences it: it no longer rides, and no fold waits
        # for it any more.
        write_stream(ring, retry + WAN_RTT)
        assert not leader.leader_state.peers["lt2a"].answering
        expired = ring.node("db2").metrics["folds_expired"]
        assert expired >= 1
        indexes = write_stream(ring, 0.5)
        ring.run(2 * WAN_RTT)
        assert ring.node("db2").metrics["folds_expired"] == expired
        assert matched(leader, "lt2b") == indexes[-1]

    def test_a_head_that_crashes_holding_acks_costs_its_riders_one_retry(self):
        ring, leader = streaming_ring()
        retry = APPEND_RETRY_INTERVAL
        index = write_one(ring)
        while ring.node("lt2b").last_opid.index < index:
            ring.run(0.0002)
        ring.host("db2").crash()  # the riders' acks are on their way to it
        crashed = ring.loop.now
        ring.run(WAN_RTT)
        assert matched(leader, "lt2a") < index and matched(leader, "lt2b") < index
        indexes = write_stream(ring, 1.0)
        ring.run(2 * WAN_RTT)
        # The head's own retry silences the region, the first rider to
        # answer its probe takes the role, and the stream goes on.
        [move] = ring.tracer.of_kind("raft.region_head")
        assert move.get("head") in ("lt2a", "lt2b") and move.get("reason") == "silent"
        assert move.time - crashed < WAN_RTT + retry + 2 * WAN_RTT
        assert {matched(leader, n) for n in ("lt2a", "lt2b")} == {indexes[-1]}


class TestAckFolds:
    """The bookkeeping alone, on hand-made messages."""

    def window(self, riders=("r1", "r2")):
        from repro.raft.log_storage import LogEntry

        return AppendEntriesRequest(
            term=3, leader="L", prev_opid=OpId(3, 10), commit_opid=OpId(3, 9),
            entries=(LogEntry(OpId(3, 11), b"x"),), final_dest="H", fanout=riders,
        )

    @staticmethod
    def ack(follower, index=11, success=True):
        return AppendEntriesResponse(
            term=3, follower=follower, success=success, last_opid=OpId(3, index), leader="L"
        )

    def test_the_head_answers_last_and_names_its_riders(self):
        metrics = {"acks_folded": 0, "folds_expired": 0}
        folds, request = AckFolds(metrics), self.window()
        folds.open(request, deadline=1.0)
        assert folds.own(request, self.ack("H")) == []
        assert folds.rider(self.ack("r2")) == []
        [folded] = folds.rider(self.ack("r1"))
        assert (folded.follower, folded.riders, folded.wire_size) == ("H", ("r2", "r1"), 96)
        assert metrics == {"acks_folded": 2, "folds_expired": 0}
        assert folds.next_deadline() is None

    def test_another_windows_ack_and_a_stranger_travel_alone(self):
        folds, request = AckFolds({"acks_folded": 0, "folds_expired": 0}), self.window()
        folds.open(request, deadline=1.0)
        other, stranger = self.ack("r1", index=10), self.ack("x")
        assert folds.rider(other) == [other] and folds.rider(stranger) == [stranger]

    def test_a_heads_reject_goes_at_once_with_the_acks_it_held(self):
        folds, request = AckFolds({"acks_folded": 0, "folds_expired": 0}), self.window()
        folds.open(request, deadline=1.0)
        held = self.ack("r1")
        folds.rider(held)
        reject = self.ack("H", index=4, success=False)
        assert folds.own(request, reject) == [reject, held]
        assert folds.next_deadline() is None

    def test_the_deadline_sends_what_was_folded(self):
        metrics = {"acks_folded": 0, "folds_expired": 0}
        folds, request = AckFolds(metrics), self.window()
        folds.open(request, deadline=1.0)
        folds.own(request, self.ack("H"))
        folds.rider(self.ack("r1"))
        assert folds.expire(0.5) == [] and folds.next_deadline() == 1.0
        [folded] = folds.expire(1.0)
        assert folded.riders == ("r1",) and metrics["folds_expired"] == 1
        late = self.ack("r2")
        assert folds.rider(late) == [late]

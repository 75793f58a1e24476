"""TransferLeadership, mock elections (§4.3), and witness handoff."""

import pytest

from repro.raft.election import MOCK_ELECTION_MAX_LAG_ENTRIES
from repro.raft.messages import RequestVoteRequest, RequestVoteResponse
from repro.raft import transfer as transfer_module
from repro.raft.transfer import MOCK_ELECTION_TIMEOUT
from repro.raft.types import OpId, RaftRole

from tests.raft.harness import RaftRing, record_sends, three_node_ring, voter, witness


class TestTransfer:
    def test_graceful_transfer_hands_over(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.commit_and_run(b"warm")
        future = ring.node("n1").transfer_leadership("n2")
        ring.run(3.0)
        assert future.done() and future.result() is True
        leader = ring.current_leader()
        assert leader is not None and leader.name == "n2"
        ring.run(2.0)
        assert ring.node("n1").role == RaftRole.FOLLOWER

    def test_transfer_to_self_rejected(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        future = ring.node("n1").transfer_leadership("n1")
        ring.run(0.1)
        assert future.failed()

    def test_transfer_from_non_leader_rejected(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        future = ring.node("n2").transfer_leadership("n3")
        ring.run(0.1)
        assert future.failed()

    def test_transfer_to_unknown_member_rejected(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        future = ring.node("n1").transfer_leadership("ghost")
        ring.run(0.1)
        assert future.failed()

    def test_transfer_waits_for_target_catchup(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.net.isolate("n2")
        for i in range(5):
            ring.commit_and_run(f"e{i}".encode(), seconds=0.2)
        ring.net.heal("n2")
        future = ring.node("n1").transfer_leadership("n2")
        ring.run(5.0)
        assert future.done() and future.result() is True
        new_leader = ring.current_leader()
        assert new_leader.name == "n2"
        assert new_leader.last_opid.index >= ring.node("n1").last_opid.index

    def test_writes_continue_after_transfer(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.node("n1").transfer_leadership("n3")
        ring.run(3.0)
        opid, fut = ring.node("n3").propose(lambda o: b"after-transfer")
        ring.run(1.0)
        assert fut.done() and not fut.failed()

    def test_concurrent_transfer_rejected(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        first = ring.node("n1").transfer_leadership("n2")
        second = ring.node("n1").transfer_leadership("n3")
        ring.run(0.1)
        assert second.failed()


class TestMockElection:
    def flexi_ring(self, **kwargs):
        """Paper-style two-region topology with witnesses."""
        from repro.flexiraft import FlexiMode, FlexiRaftPolicy

        members = [
            voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
        ]
        return RaftRing(
            members,
            policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC),
            **kwargs,
        )

    def test_mock_election_blocks_transfer_to_lagging_region(self):
        # Both of r2's logtailers lag: the mock election must fail and the
        # transfer must abort without any leadership change (§4.3 issue 1).
        ring = self.flexi_ring()
        ring.bootstrap("db1")
        ring.net.isolate("lt2a")
        ring.net.isolate("lt2b")
        for i in range(3):
            ring.commit_and_run(f"e{i}".encode(), seconds=0.3)
        future = ring.node("db1").transfer_leadership("db2")
        # The abort comes before the quiesce: 0.2 s in, when the transfer
        # would have handed over, db1 still commits at once.
        ring.run(0.2)
        _, write = ring.node("db1").propose(lambda o: b"during-transfer")
        ring.run(0.5)
        assert write.done() and not write.failed()
        ring.run(4.3)
        assert future.done()
        assert future.result() is False
        leader = ring.current_leader()
        assert leader is not None and leader.name == "db1"

    def test_mock_election_allows_transfer_to_healthy_region(self):
        ring = self.flexi_ring()
        ring.bootstrap("db1")
        ring.commit_and_run(b"x", seconds=0.5)
        ring.run(2.0)  # let everyone catch up
        future = ring.node("db1").transfer_leadership("db2")
        ring.run(5.0)
        assert future.done() and future.result() is True
        assert ring.current_leader().name == "db2"
        assert ring.node("db1").metrics["mock_elections"] == 1

    def test_transfer_without_mock_election_causes_unavailability(self, monkeypatch):
        # Ablation (§4.3): with mock elections disabled, the transfer to a
        # region with lagging logtailers goes through, the target cannot
        # assemble its in-region election quorum, and the ring has a write
        # unavailability window until it self-heals. With mock elections
        # (previous test) the transfer aborts with zero disruption.
        monkeypatch.setattr(transfer_module, "MOCK_ELECTION", False)
        ring = self.flexi_ring()
        ring.bootstrap("db1")
        ring.net.isolate("lt2a")
        ring.net.isolate("lt2b")
        ring.commit_and_run(b"x", seconds=0.3)
        transfer_time = ring.loop.now
        ring.node("db1").transfer_leadership("db2")
        ring.run(10.0)
        # The old leader stepped down but db2 never won: find when a
        # database leader next emerged.
        elections = [
            r for r in ring.tracer.of_kind("raft.leader_elected")
            if r.time > transfer_time and r.get("node").startswith("db")
        ]
        assert elections, "ring never recovered a database leader"
        downtime = elections[0].time - transfer_time
        assert downtime > 1.0, f"expected an unavailability window, got {downtime:.3f}s"
        # Sanity: the recovered leader can commit again.
        leader = ring.current_leader()
        _, fut = leader.propose(lambda o: b"recovered")
        ring.run(2.0)
        assert fut.done() and not fut.failed()


class TestMockVoterRule:
    """The §4.3 voter rule, driven through the voter side itself: a voter
    in the candidate's region denies only when it lags the cursor *and*
    is unhealthy — silent from the leader, or pathologically far behind.
    The voter holds an empty log; the cursor sets how far it trails."""

    def ring(self):
        members = [
            voter("db1", "r1"), witness("lt1a", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"),
        ]
        ring = RaftRing(members)
        for name in ring.nodes:
            ring.net.isolate(name)  # answers are inspected, not delivered
        return ring

    @staticmethod
    def mock_request(cursor_index):
        cursor = OpId(1, cursor_index)
        return RequestVoteRequest(
            term=2, candidate="db2", last_opid=cursor, is_pre_vote=True, is_mock=True,
            cursor=cursor,
        )

    OUTCOMES = {
        # voter, entries behind the cursor, seconds since leader contact
        "same-region-behind-stale-contact": ("lt2a", 3, 2.0, False),
        "same-region-far-behind-fresh": ("lt2a", MOCK_ELECTION_MAX_LAG_ENTRIES + 1, 0.0, False),
        "same-region-in-flight-lag-fresh": ("lt2a", MOCK_ELECTION_MAX_LAG_ENTRIES, 0.0, True),
        "other-region-lagging": ("lt1a", MOCK_ELECTION_MAX_LAG_ENTRIES + 1, 2.0, True),
    }

    @pytest.mark.parametrize("case", sorted(OUTCOMES))
    def test_outcome(self, case):
        name, behind, silent_for, granted = self.OUTCOMES[case]
        ring = self.ring()
        ring.run(2.0)
        election = ring.node(name).election
        election.last_leader_contact = ring.loop.now - silent_for
        verdict = election.evaluate_mock(self.mock_request(behind))
        expected = (True, "ok") if granted else (False, "lagging in candidate region")
        assert verdict == expected

    def test_the_answer_is_a_mock_pre_vote_that_records_nothing(self):
        ring = self.ring()
        ring.run(2.0)
        node = ring.node("lt2a")
        node.election.last_leader_contact = ring.loop.now
        sent = record_sends(ring.net)
        node.handle_message("db2", self.mock_request(3))
        [(_, dst, answer)] = sent
        assert dst == "db2" and isinstance(answer, RequestVoteResponse)
        assert answer.granted and answer.is_mock and answer.is_pre_vote
        assert node.current_term == 0 and node.election.vote_history == ()

    def test_stale_term_and_unknown_candidate_are_denied(self):
        ring = self.ring()
        election = ring.node("lt2a").election
        stale = RequestVoteRequest(term=0, candidate="db2", last_opid=OpId(0, 0), is_mock=True)
        ghost = RequestVoteRequest(term=2, candidate="ghost", last_opid=OpId(0, 0), is_mock=True)
        assert election.evaluate_mock(stale) == (False, "stale term")
        assert election.evaluate_mock(ghost) == (False, "unknown candidate")


class TestWitnessHandoff:
    def test_witness_elected_then_transfers_to_database(self):
        # r1's database dies; a logtailer has the longest log and wins, then
        # must hand off to a storage-engine member (§2.2, §4.1).
        from repro.flexiraft import FlexiMode, FlexiRaftPolicy

        members = [
            voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
        ]
        ring = RaftRing(members, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
        ring.bootstrap("db1")
        # Commit with in-region quorum while db2 lags behind the logtailers.
        ring.net.isolate("db2")
        for i in range(3):
            ring.commit_and_run(f"e{i}".encode(), seconds=0.3)
        ring.net.heal("db2")
        ring.host("db1").crash()
        ring.run(15.0)
        leader = ring.current_leader()
        assert leader is not None
        member = ring.membership.member(leader.name)
        assert member.has_storage_engine, f"final leader {leader.name} is a witness"
        # A witness interim leadership happened (longest-log rule) before
        # the handoff to a database member.
        elected = [r.get("node") for r in ring.tracer.of_kind("raft.leader_elected")]
        assert any(name.startswith("lt") for name in elected)
        assert ring.tracer.count("raft.witness_handoff") >= 1


class TestWitnessHandoffTargets:
    """Dead-primary failover where a logtailer of the dead primary's own
    region wins at once (in-region election quorum, FlexiRaft): whom it
    hands leadership to, and when."""

    WAN_ONE_WAY = 0.030  # the harness's cross-region latency

    def ring_after_primary_crash(self):
        from repro.flexiraft import FlexiMode, FlexiRaftPolicy

        members = [
            voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
            voter("db3", "r3"), witness("lt3a", "r3"), witness("lt3b", "r3"),
        ]
        # Seed 4: lt1a's election timer fires first.
        ring = RaftRing(members, seed=4, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
        ring.bootstrap("db1")
        for i in range(3):
            ring.commit_and_run(f"e{i}".encode(), seconds=0.3)
        ring.host("db1").crash()
        return ring

    @staticmethod
    def first_witness_election(ring):
        record = ring.tracer.of_kind("raft.leader_elected")[1]  # [0] is the bootstrap
        assert record.get("node") == "lt1a", "precondition: db1's own logtailer wins first"
        return record

    def test_never_targets_the_crashed_database_and_hands_off_on_the_first_ack(self):
        ring = self.ring_after_primary_crash()
        ring.run(4.0)
        elected = self.first_witness_election(ring)
        handoffs = ring.tracer.of_kind("raft.witness_handoff")
        # db1 is first in membership order and, like every peer of a fresh
        # leader, starts at match 0 — but it has not answered this leader.
        assert [r.get("target") for r in handoffs] == ["db2"]
        # The first database's ack of the no-op is one WAN round trip away.
        assert handoffs[0].time - elected.time <= 2 * self.WAN_ONE_WAY + 0.005
        leader = ring.current_leader()
        assert leader is not None and leader.name == "db2"
        lt1a = ring.node("lt1a")
        assert lt1a.metrics["handoff_attempts"] == 1
        assert lt1a.stats()["elections"]["handoff_attempts"] == 1
        assert lt1a.metrics["mock_elections"] == 1  # §4.3 still guards the hand-off

    def test_falls_through_to_the_next_acked_database_when_the_target_dies(self):
        ring = self.ring_after_primary_crash()
        killed = []

        def kill_first_target(record):
            if record.kind == "raft.witness_handoff" and not killed:
                killed.append(record.get("target"))
                ring.host(record.get("target")).crash()

        ring.tracer.subscribe(kill_first_target)
        ring.run(4.0)
        self.first_witness_election(ring)
        handoffs = ring.tracer.of_kind("raft.witness_handoff")
        assert [r.get("target") for r in handoffs] == ["db2", "db3"]
        assert killed == ["db2"]
        # Straight on: the failed attempt's mock-election timeout, and no
        # further wait, separates the two.
        gap = handoffs[1].time - handoffs[0].time
        assert gap == pytest.approx(MOCK_ELECTION_TIMEOUT, abs=1e-6)
        leader = ring.current_leader()
        assert leader is not None and leader.name == "db3"
        assert ring.node("lt1a").metrics["handoff_attempts"] == 2

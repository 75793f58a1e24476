"""Election behaviour: natural elections, failover, stickiness, pre-vote."""

import pytest

from repro.errors import RaftError
from repro.raft.election import ELECTION_TIMEOUT_JITTER, VOTE_TIMEOUT
from repro.raft.messages import (
    AppendEntriesRequest,
    RequestVoteRequest,
    RequestVoteResponse,
    TimeoutNowRequest,
    VoteRetraction,
)
from repro.raft.types import OpId, RaftRole
from repro.sim.network import FixedLatency, NetworkSpec

from tests.raft.harness import (
    RaftRing,
    five_node_ring,
    record_sends,
    region_ring,
    three_node_ring,
    voter,
)


class TestNaturalElection:
    def test_a_leader_emerges_from_cold_start(self):
        ring = three_node_ring()
        leader = ring.wait_for_leader()
        assert leader.role == RaftRole.LEADER
        assert leader.current_term >= 1

    def test_exactly_one_leader_per_term(self):
        ring = five_node_ring(seed=7)
        ring.wait_for_leader()
        ring.run(10.0)
        by_term = {}
        for record in ring.tracer.of_kind("raft.leader_elected"):
            term = record.get("term")
            node = record.get("node")
            by_term.setdefault(term, set()).add(node)
        assert by_term, "no elections traced"
        for term, leaders in by_term.items():
            assert len(leaders) == 1, f"term {term} elected {leaders}"

    def test_followers_learn_leader_id(self):
        ring = three_node_ring()
        leader = ring.wait_for_leader()
        ring.run(2.0)
        for node in ring.nodes.values():
            assert node.leader_id == leader.name

    def test_bootstrap_shortcut(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        assert leader.is_leader
        assert leader.current_term == 1
        assert ring.node("n2").leader_id == "n1"

    def test_bootstrap_requires_fresh_node(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        with pytest.raises(RaftError):
            ring.node("n1").bootstrap_as_initial_leader()


class TestFailover:
    def test_dead_leader_replaced(self):
        ring = three_node_ring()
        first = ring.bootstrap("n1")
        ring.host(first.name).crash()
        new_leader = ring.wait_for_leader()
        assert new_leader.name != first.name
        assert new_leader.current_term > first.current_term

    def test_failover_detection_time_matches_heartbeat_config(self):
        # 500ms heartbeats, 3 misses => detection ~1.5s + jitter (§6.2).
        ring = three_node_ring(seed=3)
        ring.bootstrap("n1")
        ring.run(1.0)
        crash_time = ring.loop.now
        ring.host("n1").crash()
        new_leader = ring.wait_for_leader()
        elected = ring.tracer.last("raft.leader_elected")
        downtime = elected.time - crash_time
        base = ring.config.election_timeout_base()
        assert base * 0.9 <= downtime <= base + ELECTION_TIMEOUT_JITTER + 2.0
        assert new_leader.name != "n1"

    def test_erstwhile_leader_demotes_on_rejoin(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.host("n1").crash()
        ring.wait_for_leader()
        ring.host("n1").restart()
        ring.run(3.0)
        n1 = ring.node("n1")
        assert n1.role == RaftRole.FOLLOWER
        assert n1.leader_id is not None
        assert n1.leader_id != "n1"

    def test_fenced_leader_cannot_commit(self):
        # Isolate the leader; a new one takes over; the old one's proposals
        # must never commit (term fencing).
        ring = three_node_ring(seed=5)
        old = ring.bootstrap("n1")
        ring.net.isolate("n1")
        stale_opid, stale_future = old.propose(lambda opid: b"stale")
        new_leader = ring.wait_for_leader(exclude="n1")
        assert new_leader.name != "n1"
        ring.net.heal("n1")
        ring.run(5.0)
        assert stale_future.failed()
        # and the stale entry is gone from the old leader's log
        entry = ring.node("n1").storage.entry(stale_opid.index)
        assert entry is None or entry.opid != stale_opid

    def test_minority_partition_cannot_elect(self):
        ring = five_node_ring(seed=11)
        ring.bootstrap("n1")
        ring.net.isolate("n4")
        ring.net.isolate("n5")
        # n4/n5 can talk to nobody; even together they're a minority.
        ring.run(15.0)
        for name in ("n4", "n5"):
            assert ring.node(name).role != RaftRole.LEADER

    def test_majority_partition_still_elects(self):
        ring = five_node_ring(seed=13)
        ring.bootstrap("n1")
        ring.run(1.0)
        # Cut the leader plus one follower away from the other three.
        for a in ("n1", "n2"):
            for b in ("n3", "n4", "n5"):
                ring.net.block_link(a, b)
        ring.run(10.0)
        majority_side = [ring.node(n) for n in ("n3", "n4", "n5")]
        assert any(n.role == RaftRole.LEADER for n in majority_side)


class TestVoteRules:
    def test_vote_denied_to_shorter_log(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        for _ in range(3):
            ring.commit_and_run()
        # Freeze n3 before it can catch up? It already has the entries.
        # Instead: append one entry only reachable by n2.
        ring.net.isolate("n3")
        ring.commit_and_run(b"only-n2")
        ring.net.heal("n3")
        # Kill the leader; n3 (shorter log) must not win over n2.
        ring.host("n1").crash()
        new_leader = ring.wait_for_leader()
        assert new_leader.name == "n2"

    def test_pre_vote_gated_candidate_cannot_disrupt_live_leader(self):
        # The normal (pre-vote) path: a node that spuriously campaigns is
        # denied pre-votes by stickiness, never bumps any term, and the
        # leader stays exactly where it was.
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.run(1.0)
        term_before = ring.node("n1").current_term
        ring.node("n3").election.start_pre_vote()
        ring.run(3.0)
        assert ring.node("n1").role == RaftRole.LEADER
        assert ring.node("n1").current_term == term_before
        assert ring.node("n3").role == RaftRole.FOLLOWER

    # What voids an in-flight pre-vote, and the reason traced for it. Each
    # arrives at n3 (term 1, pre-voting for term 2) before its grants do.
    PRE_VOTE_VOIDED_BY = {
        "vote-granted": RequestVoteRequest(term=1, candidate="n2", last_opid=OpId.zero()),
        "term-changed": RequestVoteResponse(term=3, voter="n2", granted=False, is_pre_vote=True),
        "leader-contact": AppendEntriesRequest(
            term=1, leader="n2", prev_opid=OpId.zero(), commit_opid=OpId.zero()
        ),
    }

    @pytest.mark.parametrize("reason", sorted(PRE_VOTE_VOIDED_BY))
    def test_late_pre_vote_grants_do_not_start_an_election(self, reason):
        # A pre-vote asks "nobody leads, would you elect me?". Once the
        # asker has voted for a rival, moved to another term, or heard a
        # leader, the answer is moot: grants that arrive afterwards must
        # not turn into a higher-term election against what it now knows.
        ring = five_node_ring()
        for name in ring.nodes:
            ring.net.isolate(name)  # messages are delivered by hand below
        n3 = ring.node("n3")
        n3._set_term(1)
        n3.election.start_pre_vote()
        n3.handle_message("n2", self.PRE_VOTE_VOIDED_BY[reason])
        term_known = n3.current_term
        for granter in ("n4", "n5"):  # with n3 itself: a majority of five
            n3.handle_message(
                granter,
                RequestVoteResponse(term=term_known, voter=granter, granted=True, is_pre_vote=True),
            )
        assert n3.metrics["elections_started"] == 0
        assert n3.current_term == term_known and n3.role == RaftRole.FOLLOWER
        assert n3.metrics["pre_votes_abandoned"] == 1
        assert n3.stats()["elections"]["pre_votes_abandoned"] == 1
        abandoned = ring.tracer.of_kind("raft.pre_vote_abandoned")
        assert [(r.get("node"), r.get("reason")) for r in abandoned] == [("n3", reason)]
        assert ring.tracer.count("raft.pre_vote_won") == 0

    def test_pre_vote_that_still_stands_starts_the_election(self):
        # The control for the test above: nothing voided the pre-vote.
        ring = five_node_ring()
        for name in ring.nodes:
            ring.net.isolate(name)
        n3 = ring.node("n3")
        n3._set_term(1)
        n3.election.start_pre_vote()
        for granter in ("n4", "n5"):
            n3.handle_message(
                granter, RequestVoteResponse(term=1, voter=granter, granted=True, is_pre_vote=True)
            )
        assert n3.metrics["elections_started"] == 1 and n3.current_term == 2
        assert n3.metrics["pre_votes_abandoned"] == 0

    def test_voter_with_a_pre_vote_in_flight_does_not_depose_the_leader_it_elected(self):
        # Two regions 30 ms apart. n1 campaigns at t=0; n3 starts a
        # pre-vote 1 ms before n1's vote request reaches it, grants n1 the
        # vote, and n1 leads from t=60 ms. n3's pre-vote grants come back
        # at t=89 ms: acting on them would start a term-2 election whose
        # higher term deposes the 30 ms-old leader.
        members = [voter("n1", "r1"), voter("n2", "r1"), voter("n3", "r2"),
                   voter("n4", "r2"), voter("n5", "r3")]
        spec = NetworkSpec(in_region=FixedLatency(0.001), cross_region=FixedLatency(0.030))
        ring = RaftRing(members, network_spec=spec)
        ring.node("n1").start_election()
        ring.run(0.029)
        ring.node("n3").election.start_pre_vote()
        ring.run(1.0)
        elected = [(r.get("node"), r.get("term")) for r in ring.tracer.of_kind("raft.leader_elected")]
        assert elected == [("n1", 1)]
        assert ring.tracer.count("raft.stepped_down") == 0
        assert ring.node("n1").is_leader
        assert {n.current_term for n in ring.nodes.values()} == {1}
        assert ring.node("n3").metrics["elections_started"] == 0
        assert ring.node("n3").metrics["pre_votes_abandoned"] == 1

    def test_forced_election_converges_to_single_leader(self):
        # Bypassing pre-vote (abnormal operation) may depose the leader via
        # the higher-term response path — standard Raft — but the ring must
        # converge back to exactly one leader everyone follows, and the
        # disruptive candidate is denied by stickiness in the moment.
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.run(1.0)
        ring.node("n3").start_election()
        ring.run(0.3)
        assert ring.node("n3").role != RaftRole.LEADER
        ring.run(15.0)
        leader = ring.current_leader()
        assert leader is not None
        followers = [n for n in ring.nodes.values() if n.name != leader.name]
        assert all(n.leader_id == leader.name for n in followers)
        assert all(n.role == RaftRole.FOLLOWER for n in followers)

    def test_single_node_ring_self_elects_and_commits(self):
        ring = RaftRing([voter("solo")])
        leader = ring.wait_for_leader()
        assert leader.name == "solo"
        opid, future = leader.propose(lambda o: b"alone")
        ring.run(0.5)
        assert future.done() and not future.failed()
        assert leader.commit_index == opid.index


class TestRestartRecovery:
    def test_term_and_vote_survive_restart(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.run(2.0)
        term_before = ring.node("n2").current_term
        ring.host("n2").crash()
        ring.run(1.0)
        ring.host("n2").restart()
        assert ring.node("n2").current_term >= term_before

    def test_log_survives_restart(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        opid, _ = ring.commit_and_run(b"durable")
        ring.host("n2").crash()
        ring.host("n2").restart()
        entry = ring.node("n2").storage.entry(opid.index)
        assert entry is not None
        assert entry.payload == b"durable"

    def test_restarted_node_rejoins_and_catches_up(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.host("n3").crash()
        opids = [ring.commit_and_run(f"e{i}".encode())[0] for i in range(3)]
        ring.host("n3").restart()
        ring.run(3.0)
        n3 = ring.node("n3")
        for opid in opids:
            entry = n3.storage.entry(opid.index)
            assert entry is not None and entry.opid == opid


# -- elections that finish (same-term rivals, hopeless candidacies) ---------------


def cut_off_everyone(ring):
    """From here on the test delivers messages by hand."""
    for name in ring.nodes:
        ring.net.isolate(name)


def slow_link(ring, src, dst, extra, only=lambda message: True):
    """Messages ``src`` → ``dst`` that ``only`` accepts take ``extra`` longer."""
    deliver = ring.net.send

    def send(s, d, message):
        if (s, d) == (src, dst) and only(message):
            ring.loop.call_after(extra, deliver, s, d, message)
        else:
            deliver(s, d, message)

    ring.net.send = send


def answer(candidate, voter_name, granted, history=()):
    """Hand ``candidate`` one real-vote response at its current term, from a
    voter that knows the same last leader."""
    candidate.handle_message(
        voter_name,
        RequestVoteResponse(
            term=candidate.current_term, voter=voter_name, granted=granted,
            last_leader_term=candidate.election.last_known_leader_term,
            last_leader_region=candidate.election.last_known_leader_region,
            vote_history=tuple(history),
        ),
    )


def abandonments(ring):
    return [(r.get("node"), r.get("reason")) for r in ring.tracer.of_kind("raft.election_abandoned")]


WAN_RTT = 0.060


class TestSameTermRival:
    """Which reported votes tighten a FlexiRaft candidate's election quorum.
    db1 (region r1) runs against db0 (r0, the last leader everyone knows)."""

    def candidate(self, term):
        ring = region_ring()
        ring.bootstrap("db0")
        cut_off_everyone(ring)
        db1 = ring.node("db1")
        db1._set_term(term - 1)
        db1.start_election()
        assert db1.current_term == term
        return ring, db1

    def grant_own_and_leader_regions(self, db1, history=()):
        answer(db1, "lt1a", True)
        answer(db1, "lt0a", True, history)
        answer(db1, "lt0b", True)

    def test_rival_vote_in_the_candidates_own_term_does_not_widen_the_quorum(self):
        # db2 denies: it voted for itself (region r2) in this very term. That
        # says nothing about a leader db1 has not heard of — db2 cannot win
        # this term if db1 does — and db1 might as well not have received it.
        ring, db1 = self.candidate(term=2)
        answer(db1, "db2", False, history=[(2, "r2")])
        self.grant_own_and_leader_regions(db1)
        assert db1.is_leader

    def test_rival_vote_in_an_older_term_still_widens_it(self):
        # The same denial about term 2 while db1 campaigns in term 3: db2 may
        # have won term 2 unheard of, so db1 must also carry region r2.
        ring, db1 = self.candidate(term=3)
        answer(db1, "db2", False, history=[(2, "r2")])
        self.grant_own_and_leader_regions(db1)
        assert not db1.is_leader and db1.role == RaftRole.CANDIDATE
        answer(db1, "lt2a", True)
        answer(db1, "lt2b", True)
        assert db1.is_leader

    def test_history_reported_by_a_grantor_still_widens_it(self):
        ring, db1 = self.candidate(term=3)
        self.grant_own_and_leader_regions(db1, history=[(2, "r2")])
        assert not db1.is_leader and db1.role == RaftRole.CANDIDATE
        answer(db1, "lt2a", True)
        answer(db1, "lt2b", True)
        assert db1.is_leader


class TestHopelessCandidacy:
    """A candidacy ends on the denial after which the voters that have not
    denied — the silent last leader not among them — cannot elect it."""

    def candidate(self, transfer=False):
        ring = five_node_ring()
        ring.bootstrap("n1")
        cut_off_everyone(ring)
        n3 = ring.node("n3")
        if transfer:
            n3.handle_message("n1", TimeoutNowRequest(term=n3.current_term, leader="n1"))
        else:
            n3.start_election()
        return ring, n3

    def test_not_hopeless_while_a_silent_voter_other_than_the_leader_could_decide(self):
        ring, n3 = self.candidate()
        answer(n3, "n2", True)
        answer(n3, "n4", False)
        # n5 has not answered: n3, n2 and n5 would be a majority of five.
        assert n3.role == RaftRole.CANDIDATE and abandonments(ring) == []
        answer(n3, "n5", False)
        # Only the leader it runs against is left, and that one is presumed dead.
        assert n3.role == RaftRole.FOLLOWER
        assert abandonments(ring) == [("n3", "hopeless")]
        assert n3.metrics["elections_abandoned"] == 1
        assert n3.stats()["elections"]["elections_abandoned"] == 1
        assert n3.election.vote_history == ()

    def test_transfer_election_waits_for_the_old_leaders_grant(self):
        # The same answers to a TimeoutNow election: the old leader is alive
        # and about to grant, so its outstanding vote still counts.
        ring, n3 = self.candidate(transfer=True)
        answer(n3, "n2", True)
        answer(n3, "n4", False)
        answer(n3, "n5", False)
        assert n3.role == RaftRole.CANDIDATE and abandonments(ring) == []
        answer(n3, "n1", True)
        assert n3.is_leader

    def test_grant_that_lands_after_the_abandonment_is_retracted(self):
        ring, n3 = self.candidate()
        term = n3.current_term
        answer(n3, "n4", False)
        answer(n3, "n5", False)
        sent = record_sends(ring.net)
        answer(n3, "n2", False)
        assert abandonments(ring) == [("n3", "hopeless")]
        # n2's reply was in fact a grant that was still in flight.
        n3.handle_message("n2", RequestVoteResponse(term=term, voter="n2", granted=True))
        assert [(dst, m) for _, dst, m in sent] == [("n2", VoteRetraction(term=term, candidate="n3"))]

    def test_grant_for_a_term_this_node_won_is_never_retracted(self):
        ring, n3 = self.candidate()
        term = n3.current_term
        answer(n3, "n2", True)
        answer(n3, "n4", True)
        assert n3.is_leader
        sent = record_sends(ring.net)
        n3.handle_message("n5", RequestVoteResponse(term=term, voter="n5", granted=True))
        assert not [m for _, _, m in sent if isinstance(m, VoteRetraction)]

    def test_vote_timeout_is_the_backstop_for_voters_that_never_answer(self):
        ring, n3 = self.candidate()
        answer(n3, "n2", True)
        ring.run(VOTE_TIMEOUT + 0.01)
        assert abandonments(ring) == [("n3", "vote-timeout")]

    def test_isolated_member_campaigns_no_faster_than_before(self):
        # Its pre-votes are never answered, so no election starts, nothing is
        # abandoned, and every retry waits a full detection window.
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.net.isolate("n3")
        ring.run(12.0)
        n3 = ring.node("n3")
        timeouts = [r.time for r in ring.tracer.of_kind("raft.election_timeout") if r.get("node") == "n3"]
        assert len(timeouts) >= 4
        gaps = [b - a for a, b in zip(timeouts, timeouts[1:])]
        assert min(gaps) >= ring.config.election_timeout_base()
        assert n3.metrics["elections_started"] == 0 and n3.metrics["elections_abandoned"] == 0


class TestThreeWaySplit:
    """Four regions, the primary (db0) dead, one candidate per follower
    region in the same term; db0's two logtailers back different ones."""

    def split(self):
        ring = region_ring(regions=4)
        for node in ring.nodes.values():
            node.election._timeout = lambda: 1e6  # the test starts the elections
        ring.bootstrap("db0")
        ring.host("db0").crash()
        ring.run(ring.config.election_timeout_base() + 0.1)  # stickiness lapses
        real_vote = lambda m: isinstance(m, RequestVoteRequest) and not m.is_pre_vote
        # db1 asks first, but its request to lt0b is late: lt0b backs db2.
        slow_link(ring, "db1", "lt0b", 0.005, only=real_vote)
        # lt0a's grant to db1 is still in flight when db1 gives up.
        slow_link(ring, "lt0a", "db1", 0.010)
        started = ring.loop.now
        for name in ("db1", "db2", "db3"):
            ring.node(name).start_election()
        return ring, started

    def test_every_candidate_abandons_within_a_round_trip_and_a_leader_follows(self):
        ring, started = self.split()
        ring.run(2 * WAN_RTT)
        records = ring.tracer.of_kind("raft.election_abandoned")
        assert sorted((r.get("node"), r.get("reason")) for r in records) == [
            ("db1", "hopeless"), ("db2", "hopeless"), ("db3", "hopeless"),
        ]
        # One round trip to hear the deciding denial (db1's comes 5 ms late).
        assert max(r.time for r in records) - started <= WAN_RTT + 0.005 + 0.002
        assert ring.tracer.count("raft.leader_elected") == 1  # bootstrap only
        ring.run(ELECTION_TIMEOUT_JITTER + WAN_RTT)
        leader = ring.current_leader()
        assert leader is not None
        elected = ring.tracer.last("raft.leader_elected")
        assert elected.time - started <= ELECTION_TIMEOUT_JITTER + 3 * WAN_RTT

    def test_no_voter_keeps_an_abandoned_term_in_its_vote_history(self):
        ring, started = self.split()
        # 60 ms: db1's last answers; +10: lt0a's late grant; +30: its retraction.
        ring.run(WAN_RTT + 0.010 + 0.030 + 0.002)
        assert len(ring.tracer.of_kind("raft.election_abandoned")) == 3
        holding = {
            name: node.election.vote_history for name, node in ring.nodes.items()
            if ring.host(name).alive and node.election.vote_history
        }
        assert holding == {}

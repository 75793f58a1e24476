"""Unit tests for the invariant monitors (fakes) plus one failover
integration check on the real stack."""

from dataclasses import replace

from repro.check.explorer import run_once
from repro.check.invariants import MAX_VIOLATIONS, InvariantSuite
from repro.check.scenarios import SCENARIOS
from repro.cluster.replicaset import MyRaftReplicaset
from repro.cluster.topology import paper_topology
from repro.mysql.gtid import Gtid
from repro.raft.log_storage import LogEntry
from repro.raft.membership import MembershipConfig
from repro.raft.quorum import MajorityQuorum
from repro.raft.types import MemberInfo, MemberType, OpId


class FakeLoop:
    def __init__(self):
        self.now = 1.0


class FakeHost:
    def __init__(self, loop):
        self.loop = loop


class FakeStorage:
    def __init__(self, entries=(), first=1):
        self._entries = {e.opid.index: e for e in entries}
        self._first = first

    def first_index(self):
        return self._first

    def entry(self, index):
        return self._entries.get(index)

    def last_opid(self):
        if not self._entries:
            return OpId.zero()
        return self._entries[max(self._entries)].opid


def config(*names):
    return MembershipConfig(
        tuple(MemberInfo(n, "r1", MemberType.VOTER) for n in names)
    )


class FakeNode:
    def __init__(self, name, term=1, entries=(), membership=None, first=1):
        self.name = name
        self.host = FakeHost(FakeLoop())
        self.current_term = term
        self.storage = FakeStorage(entries, first=first)
        self.membership = membership or config("a", "b", "c")
        self.policy = MajorityQuorum()
        self._quorum_override = None


def entry(index, term=1, payload=b"x"):
    return LogEntry(OpId(term, index), payload)


class TestElectionSafety:
    def test_two_leaders_same_term_violate(self):
        suite = InvariantSuite()
        suite.on_leader_elected(FakeNode("a", term=2), frozenset({"a", "b"}))
        suite.on_leader_elected(FakeNode("b", term=2), frozenset({"b", "c"}))
        kinds = [v.invariant for v in suite.violations]
        assert "ElectionSafety" in kinds

    def test_distinct_terms_are_fine(self):
        suite = InvariantSuite()
        suite.on_leader_elected(FakeNode("a", term=2), frozenset({"a", "b"}))
        suite.on_leader_elected(FakeNode("b", term=3), frozenset({"b", "c"}))
        assert not [v for v in suite.violations if v.invariant == "ElectionSafety"]


class TestLeaderCompleteness:
    def test_missing_committed_entry_flagged(self):
        suite = InvariantSuite()
        committer = FakeNode("a", term=1, entries=[entry(1)])
        suite.on_commit_advance(committer, 0, 1)
        empty_leader = FakeNode("b", term=2)
        suite.on_leader_elected(empty_leader, frozenset({"b", "c"}))
        assert any(v.invariant == "LeaderCompleteness" for v in suite.violations)

    def test_complete_leader_is_clean(self):
        suite = InvariantSuite()
        committer = FakeNode("a", term=1, entries=[entry(1)])
        suite.on_commit_advance(committer, 0, 1)
        full_leader = FakeNode("b", term=2, entries=[entry(1)])
        suite.on_leader_elected(full_leader, frozenset({"b", "c"}))
        assert suite.ok


class TestCommitLedger:
    def test_conflicting_term_at_committed_index(self):
        suite = InvariantSuite()
        suite.on_commit_advance(FakeNode("a"), 0, 1)
        other = FakeNode("b", entries=[entry(1, term=2)])
        suite.on_commit_advance(FakeNode("a", entries=[entry(1, term=1)]), 0, 0)
        suite.on_commit_advance(FakeNode("a", entries=[entry(1, term=1)]), 0, 1)
        suite.on_commit_advance(other, 0, 1)
        assert any(v.invariant == "StateMachineSafety" for v in suite.violations)

    def test_same_term_different_payload(self):
        suite = InvariantSuite()
        suite.on_commit_advance(FakeNode("a", entries=[entry(1, payload=b"x")]), 0, 1)
        suite.on_commit_advance(FakeNode("b", entries=[entry(1, payload=b"y")]), 0, 1)
        assert any(v.invariant == "LogMatching" for v in suite.violations)

    def test_agreeing_commits_are_clean(self):
        suite = InvariantSuite()
        suite.on_commit_advance(FakeNode("a", entries=[entry(1)]), 0, 1)
        suite.on_commit_advance(FakeNode("b", entries=[entry(1)]), 0, 1)
        assert suite.ok
        assert suite.commit_floor == {"a": 1, "b": 1}


class GtidStorage(FakeStorage):
    """A log that knows which GTID each entry carries."""

    def __init__(self, entries, gtids):
        super().__init__(entries)
        self._gtids = gtids

    def gtid_at(self, index):
        return self._gtids.get(index)


class TestGtidUniqueness:
    def gtid_node(self, name, entries, gtids):
        node = FakeNode(name, entries=entries)
        node.storage = GtidStorage(entries, gtids)
        return node

    def test_a_gtid_reissued_at_another_index_is_flagged(self):
        suite = InvariantSuite()
        node = self.gtid_node(
            "a", [entry(1), entry(2, term=2)], {1: "UUID-A:1", 2: "UUID-A:1"}
        )
        suite.on_commit_advance(node, 0, 2)
        assert [v.invariant for v in suite.violations] == ["GtidUniqueness"]

    def test_the_same_entry_committed_on_every_member_is_clean(self):
        suite = InvariantSuite()
        for name in ("a", "b"):
            node = self.gtid_node(
                name, [entry(1), entry(2)], {1: "UUID-A:1", 2: "UUID-A:2"}
            )
            suite.on_commit_advance(node, 0, 2)
        assert suite.ok and suite.gtids == {"UUID-A:1": OpId(1, 1), "UUID-A:2": OpId(1, 2)}


class TestQuorumIntersection:
    def test_disjoint_quorums_flagged(self):
        suite = InvariantSuite()
        members = config("a", "b", "c", "d", "e")
        first = FakeNode("a", term=1, membership=members)
        suite.on_leader_elected(first, frozenset({"a", "b", "c"}))
        # Second leader won with {d, e}... which cannot be a majority of 5,
        # but the monitor checks the *previous* leader's view: {a, b, c}
        # remain a data quorum for it -> flagged.
        second = FakeNode("d", term=2, membership=members)
        suite.on_leader_elected(second, frozenset({"d", "e"}))
        assert any(v.invariant == "QuorumIntersection" for v in suite.violations)

    def test_intersecting_quorums_clean(self):
        suite = InvariantSuite()
        members = config("a", "b", "c", "d", "e")
        suite.on_leader_elected(
            FakeNode("a", term=1, membership=members), frozenset({"a", "b", "c"})
        )
        suite.on_leader_elected(
            FakeNode("d", term=2, membership=members), frozenset({"b", "c", "d"})
        )
        assert not [
            v for v in suite.violations if v.invariant == "QuorumIntersection"
        ]


class TestSnapshotMonotonicity:
    def test_install_below_floor_flagged(self):
        suite = InvariantSuite()
        node = FakeNode("a", entries=[entry(i) for i in range(1, 6)])
        suite.on_commit_advance(node, 0, 5)
        suite.on_snapshot_adopted(node, OpId(1, 3))
        assert any(v.invariant == "SnapshotMonotonicity" for v in suite.violations)

    def test_install_above_floor_advances_it(self):
        suite = InvariantSuite()
        node = FakeNode("a", entries=[entry(i) for i in range(1, 3)])
        suite.on_commit_advance(node, 0, 2)
        suite.on_snapshot_adopted(node, OpId(1, 7))
        assert suite.ok
        assert suite.commit_floor["a"] == 7

    def test_reimage_resets_floor(self):
        suite = InvariantSuite()
        node = FakeNode("a", entries=[entry(1)])
        suite.on_commit_advance(node, 0, 1)
        suite.reset_member("a")
        suite.on_snapshot_adopted(node, OpId(1, 1))
        assert suite.ok


class TestViolationCap:
    def test_recording_stops_at_cap(self):
        suite = InvariantSuite()
        for term in range(1, MAX_VIOLATIONS + 10):
            # Same term, alternating winners: every second call violates.
            suite.on_leader_elected(FakeNode("a", term=1), frozenset({"a"}))
            suite.on_leader_elected(FakeNode("b", term=1), frozenset({"b"}))
        assert len(suite.violations) == MAX_VIOLATIONS


class TestFailoverIntegration:
    def test_primary_crash_failover_is_clean(self):
        cluster = MyRaftReplicaset(
            paper_topology(follower_regions=2, learners=0), seed=7
        )
        suite = InvariantSuite()
        suite.attach(cluster)
        primary = cluster.bootstrap()
        for i in range(5):
            cluster.write_and_run("t", {i: {"id": i, "v": i}}, seconds=0.5)
        cluster.crash(primary.host.name)
        replacement = cluster.wait_for_primary(timeout=60.0)
        assert replacement.host.name != primary.host.name
        cluster.write_and_run("t", {99: {"id": 99, "v": 99}}, seconds=2.0)
        cluster.run(5.0)
        suite.check_cluster(cluster)
        assert suite.ok, [str(v) for v in suite.violations]
        assert suite.checks["elections"] >= 2
        assert cluster.databases_converged()


class TestEngineAgreement:
    def converged(self):
        cluster = MyRaftReplicaset(paper_topology(follower_regions=2, learners=0), seed=7)
        suite = InvariantSuite()
        suite.attach(cluster)
        cluster.bootstrap()
        for i in range(5):
            cluster.write_and_run("t", {i: {"id": i, "v": i}}, seconds=0.5)
        cluster.run(2.0)
        return cluster, suite

    def test_engines_at_the_same_opid_agree(self):
        cluster, suite = self.converged()
        suite.check_cluster(cluster)
        assert suite.ok, [str(v) for v in suite.violations]
        assert suite.checks["engine_agreements"] == 2  # three databases

    def test_a_gtid_missing_from_one_engine_is_flagged(self):
        cluster, suite = self.converged()
        executed = cluster.server("region1-db1").mysql.engine.executed_gtids
        uuid = executed.uuids()[0]
        assert executed.remove(Gtid(uuid, executed.last_txn_id(uuid)))
        suite.check_cluster(cluster)
        assert [v.invariant for v in suite.violations] == ["EngineAgreement"]


class TestLeaderWithin:
    def cluster(self):
        cluster = MyRaftReplicaset(paper_topology(follower_regions=2, learners=0), seed=7)
        suite = InvariantSuite()
        suite.attach(cluster)
        suite.watch_leader(cluster, 3.0)
        return cluster, suite, cluster.bootstrap()

    def test_failover_inside_the_bound_is_clean(self):
        cluster, suite, primary = self.cluster()
        cluster.crash(primary.host.name)
        cluster.run(4.0)
        assert suite.checks["failovers"] == 1
        assert suite.ok, [str(v) for v in suite.violations]

    def test_no_primary_while_a_quorum_is_up_is_flagged(self):
        cluster, suite, primary = self.cluster()
        for service in cluster.services.values():  # nobody ever campaigns
            service.node.election._on_timeout = lambda: None
            service.node.election.expire_timer()
        cluster.crash(primary.host.name)
        cluster.run(4.0)
        assert [v.invariant for v in suite.violations] == ["LeaderWithin"]

    def test_no_primary_without_an_election_quorum_is_not(self):
        # Both of the dead primary's logtailers are down too: no candidate
        # can win a majority of its region, so nothing is owed.
        cluster, suite, primary = self.cluster()
        for name in ("region0-lt1", "region0-lt2", primary.host.name):
            cluster.crash(name)
        cluster.run(4.0)
        assert suite.checks["failovers"] == 1
        assert suite.ok, [str(v) for v in suite.violations]

    def test_a_successor_crashing_inside_the_window_ends_it_met(self):
        # Seed 3: region1-db1 crashes at 14.6 s, region0-db1 is promoted
        # at 16.29 s and crashes at 16.90 s, region2-db1 is promoted at
        # 18.59 s. Nothing is writable at 17.6 s, yet both failovers
        # finished inside their own bound.
        scenario = replace(SCENARIOS["leader-crash-loop"], leader_within=3.0)
        outcome = run_once(scenario, 3)
        assert outcome.ok, outcome.violations
        assert outcome.checks["failovers"] == 5

    def test_a_crash_of_no_writable_primary_does_not_end_the_window(self):
        # Nobody campaigns, so nothing becomes writable; a second member
        # crashing inside the window still leaves an election quorum up.
        cluster, suite, primary = self.cluster()
        for service in cluster.services.values():
            service.node.election._on_timeout = lambda: None
            service.node.election.expire_timer()
        cluster.crash(primary.host.name)
        cluster.run(1.0)
        cluster.crash("region1-db1")
        cluster.run(3.0)
        assert suite.checks["failovers"] == 1
        assert [v.invariant for v in suite.violations] == ["LeaderWithin"]

    def test_a_follower_crash_starts_no_clock(self):
        cluster, suite, primary = self.cluster()
        cluster.crash("region1-db1")
        cluster.run(4.0)
        assert suite.checks["failovers"] == 0

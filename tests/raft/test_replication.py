"""Replication and commit behaviour."""

import pytest

from repro.errors import NotLeaderError
from repro.raft import replication
from repro.raft.hooks import RaftHooks

from tests.raft.harness import RaftRing, learner, three_node_ring, voter


class CommitRecorder(RaftHooks):
    def __init__(self):
        self.commits = []
        self.appended = []
        self.truncated = []

    def on_commit_advance(self, opid):
        self.commits.append(opid)

    def on_entries_appended(self, entries, from_leader):
        self.appended.extend(entries)

    def on_truncated(self, removed):
        self.truncated.extend(removed)


def recording_ring(members=None, **kwargs):
    recorders = {}

    def factory(name):
        recorders[name] = CommitRecorder()
        return recorders[name]

    ring = RaftRing(
        members or [voter("n1"), voter("n2"), voter("n3")],
        hooks_factory=factory,
        **kwargs,
    )
    return ring, recorders


class TestBasicReplication:
    def test_proposal_commits_and_resolves(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        opid, future = ring.commit_and_run(b"hello")
        assert future.done() and future.result() == opid

    def test_entries_reach_all_nodes(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        opid, _ = ring.commit_and_run(b"payload")
        for node in ring.nodes.values():
            entry = node.storage.entry(opid.index)
            assert entry is not None
            assert entry.payload == b"payload"

    def test_commit_marker_piggybacks_to_followers(self):
        ring, recorders = recording_ring()
        ring.bootstrap("n1")
        opid, _ = ring.commit_and_run(b"x", seconds=2.0)
        for name in ("n2", "n3"):
            assert any(c.index >= opid.index for c in recorders[name].commits)

    def test_propose_on_follower_raises(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        with pytest.raises(NotLeaderError):
            ring.node("n2").propose(lambda o: b"nope")

    def test_many_proposals_commit_in_order(self):
        ring, recorders = recording_ring()
        ring.bootstrap("n1")
        futures = []
        for i in range(50):
            _, fut = ring.node("n1").propose(lambda o, i=i: f"p{i}".encode())
            futures.append(fut)
            ring.run(0.01)
        ring.run(2.0)
        assert all(f.done() and not f.failed() for f in futures)
        indexes = [f.result().index for f in futures]
        assert indexes == sorted(indexes)
        assert ring.logs_consistent_up_to_commit()

    def test_large_batch_respects_append_limits(self, monkeypatch):
        monkeypatch.setattr(replication, "MAX_ENTRIES_PER_APPEND", 4)
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.net.isolate("n3")
        for i in range(20):
            ring.node("n1").propose(lambda o, i=i: f"e{i}".encode())
        ring.run(1.0)
        ring.net.heal("n3")
        ring.run(5.0)
        assert ring.node("n3").last_opid.index == ring.node("n1").last_opid.index


class TestLaggingFollower:
    def test_follower_catches_up_from_storage_after_cache_eviction(self):
        from repro.raft.config import RaftConfig

        ring = three_node_ring(raft_config=RaftConfig(log_cache_max_bytes=256))
        ring.bootstrap("n1")
        ring.net.isolate("n3")
        for i in range(30):
            ring.node("n1").propose(lambda o, i=i: b"D" * 64)
            ring.run(0.05)
        ring.run(1.0)
        leader_cache = ring.node("n1").cache
        assert 2 not in leader_cache  # oldest data entries evicted
        ring.net.heal("n3")
        ring.run(5.0)
        assert ring.node("n3").last_opid.index == ring.node("n1").last_opid.index

    def test_conflicting_suffix_truncated(self):
        ring, recorders = recording_ring(seed=5)
        ring.bootstrap("n1")
        ring.commit_and_run(b"committed")
        # n1 isolated with an uncommitted entry in its log.
        ring.net.isolate("n1")
        ring.node("n1").propose(lambda o: b"orphan")
        new_leader = ring.wait_for_leader(exclude="n1")
        _, fut = new_leader.propose(lambda o: b"winner")
        ring.run(2.0)
        assert fut.done() and not fut.failed()
        # Old leader heals; its orphan entry must be truncated away.
        ring.net.heal("n1")
        ring.run(5.0)
        assert recorders["n1"].truncated, "expected truncation on old leader"
        assert any(e.payload == b"orphan" for e in recorders["n1"].truncated)
        assert ring.logs_consistent_up_to_commit()


class TestLearners:
    def test_learner_receives_entries_but_does_not_vote(self):
        ring = RaftRing([voter("n1"), voter("n2"), voter("n3"), learner("l1")])
        ring.bootstrap("n1")
        opid, _ = ring.commit_and_run(b"data")
        assert ring.node("l1").storage.entry(opid.index) is not None
        # Learner acks don't count: kill both followers; nothing commits
        # even though the learner still acks.
        ring.host("n2").crash()
        ring.host("n3").crash()
        _, fut = ring.node("n1").propose(lambda o: b"stuck")
        ring.run(3.0)
        assert not fut.done()

    def test_learner_never_becomes_candidate(self):
        ring = RaftRing([voter("n1"), learner("l1")])
        ring.bootstrap("n1")
        ring.host("n1").crash()
        ring.run(10.0)
        from repro.raft.types import RaftRole

        assert ring.node("l1").role == RaftRole.LEARNER


class TestQuorumLoss:
    def test_no_commit_without_majority(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.host("n2").crash()
        ring.host("n3").crash()
        _, fut = ring.node("n1").propose(lambda o: b"minority")
        ring.run(5.0)
        assert not fut.done()

    def test_commit_resumes_when_quorum_returns(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.host("n2").crash()
        ring.host("n3").crash()
        _, fut = ring.node("n1").propose(lambda o: b"delayed")
        ring.run(2.0)
        ring.host("n2").restart()
        ring.run(3.0)
        assert fut.done() and not fut.failed()

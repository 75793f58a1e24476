"""Membership changes: one-at-a-time add/remove through the log (§2.2)."""

import pytest

from repro.errors import MembershipError, NotLeaderError
from repro.raft.membership import MembershipConfig
from repro.raft.types import MemberInfo, MemberType

from tests.raft.harness import RaftRing, learner, three_node_ring, voter


class TestMembershipConfig:
    def make(self):
        return MembershipConfig((voter("a"), voter("b", "r2"), learner("c", "r2")))

    def test_queries(self):
        config = self.make()
        assert config.names() == ["a", "b", "c"]
        assert config.voter_names() == ["a", "b"]
        assert [m.name for m in config.learners()] == ["c"]
        assert "a" in config and "ghost" not in config
        assert config.regions() == ["r1", "r2"]
        assert [m.name for m in config.voters_in_region("r2")] == ["b"]

    def test_add(self):
        config = self.make().with_added(voter("d"), config_index=9)
        assert "d" in config
        assert config.config_index == 9

    def test_add_duplicate_rejected(self):
        with pytest.raises(MembershipError):
            self.make().with_added(voter("a"), 1)

    def test_remove(self):
        config = self.make().with_removed("c", 5)
        assert "c" not in config

    def test_remove_absent_rejected(self):
        with pytest.raises(MembershipError):
            self.make().with_removed("ghost", 1)

    def test_remove_last_voter_rejected(self):
        config = MembershipConfig((voter("a"), learner("c")))
        with pytest.raises(MembershipError):
            config.with_removed("a", 1)

    def test_wire_roundtrip(self):
        config = self.make()
        assert MembershipConfig.from_wire(config.to_wire(), 3).names() == config.names()

    def test_duplicate_names_rejected(self):
        with pytest.raises(MembershipError):
            MembershipConfig((voter("a"), voter("a")))


class TestAddMember:
    def test_added_voter_joins_and_replicates(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.commit_and_run(b"before")
        # Allocate the new host first (automation prepares the member).
        new_member = MemberInfo("n4", "r1", MemberType.VOTER)
        ring.add_host(new_member)
        _, fut = ring.node("n1").config_changes.add_member(new_member)
        ring.run(3.0)
        assert fut.done() and not fut.failed()
        assert "n4" in ring.node("n1").membership
        # New member catches up on history.
        ring.run(3.0)
        assert ring.node("n4").last_opid.index == ring.node("n1").last_opid.index

    def test_added_voter_counts_toward_quorum(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        new_member = MemberInfo("n4", "r1", MemberType.VOTER)
        ring.add_host(new_member)
        _, fut = ring.node("n1").config_changes.add_member(new_member)
        ring.run(3.0)
        # 4 voters now: kill two followers; n1 + n4 is only half — no commit.
        ring.host("n2").crash()
        ring.host("n3").crash()
        _, stuck = ring.node("n1").propose(lambda o: b"needs-3-of-4")
        ring.run(3.0)
        assert not stuck.done()

    def test_add_from_follower_rejected(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        with pytest.raises(NotLeaderError):
            ring.node("n2").config_changes.add_member(MemberInfo("n4", "r1", MemberType.VOTER))

    def test_second_change_rejected_while_first_uncommitted(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        # Block commits so the first config entry stays uncommitted.
        ring.host("n2").crash()
        ring.host("n3").crash()
        new_member = MemberInfo("n4", "r1", MemberType.VOTER)
        ring.add_host(new_member)
        ring.node("n1").config_changes.add_member(new_member)
        with pytest.raises(MembershipError):
            ring.node("n1").config_changes.add_member(MemberInfo("n5", "r1", MemberType.VOTER))


class TestRemoveMember:
    def test_removed_member_leaves_quorum(self):
        ring = RaftRing([voter(f"n{i}") for i in range(1, 5)])
        ring.bootstrap("n1")
        _, fut = ring.node("n1").config_changes.remove_member("n4")
        ring.run(2.0)
        assert fut.done() and not fut.failed()
        assert "n4" not in ring.node("n1").membership
        # 3 voters remain: one follower down still commits (2 of 3).
        ring.host("n3").crash()
        _, ok = ring.node("n1").propose(lambda o: b"2-of-3")
        ring.run(2.0)
        assert ok.done() and not ok.failed()

    def test_leader_cannot_remove_itself(self):
        ring = three_node_ring()
        ring.bootstrap("n1")
        with pytest.raises(MembershipError):
            ring.node("n1").config_changes.remove_member("n1")

    def test_membership_survives_leader_change(self):
        ring = RaftRing([voter(f"n{i}") for i in range(1, 5)])
        ring.bootstrap("n1")
        _, fut = ring.node("n1").config_changes.remove_member("n4")
        ring.run(2.0)
        ring.node("n1").transfer_leadership("n2")
        ring.run(3.0)
        leader = ring.current_leader()
        assert leader.name == "n2"
        assert "n4" not in leader.membership


class TestConfigKeptBelowAPurge:
    def test_a_restart_after_the_purge_rebuilds_the_config_in_effect_there(self):
        ring = RaftRing([voter(f"n{i}") for i in range(1, 5)])
        leader = ring.bootstrap("n1")
        leader.config_changes.remove_member("n4")
        ring.run(2.0)
        ring.commit_and_run(b"x")
        # A newer config is written but cannot commit, so it is retained
        # above the purge horizon while the committed one below is purged.
        ring.host("n2").crash()
        ring.host("n3").crash()
        leader.config_changes.remove_member("n3")
        horizon = leader.membership.config_index
        leader.config_changes.keep_config_below(horizon)
        leader.storage.purge_below(horizon)
        # A later leader truncates the uncommitted config; the log then
        # holds no CONFIG entry and a restart falls back to the durable one.
        leader.storage.truncate_from(horizon)
        ring.host("n1").crash()
        ring.host("n1").restart()
        assert leader.membership.names() == ["n1", "n2", "n3"]

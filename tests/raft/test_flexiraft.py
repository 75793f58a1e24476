"""FlexiRaft quorum policy tests (§4.1): unit rules + ring behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flexiraft import FlexiMode, FlexiRaftPolicy, region_groups, region_quorum_watermark
from repro.flexiraft.watermarks import all_region_watermarks, safe_purge_horizon
from repro.raft.membership import MembershipConfig
from repro.raft.quorum import ElectionContext, ForcedQuorum, MajorityQuorum, majority_count

from tests.raft.harness import RaftRing, learner, voter, witness


def paper_topology():
    """§6.1's A/B topology, shrunk: primary region + two follower regions,
    each with a database voter and two logtailer witnesses, one learner."""
    members = [
        voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
        voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
        voter("db3", "r3"), witness("lt3a", "r3"), witness("lt3b", "r3"),
        learner("lrn1", "r2"),
    ]
    return MembershipConfig(tuple(members))


class TestSingleRegionDynamicDataQuorum:
    def setup_method(self):
        self.policy = FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        self.config = paper_topology()

    def test_leader_region_majority_commits(self):
        # leader db1 + one of two r1 logtailers = 2 of 3 in-region voters.
        assert self.policy.data_quorum_satisfied(
            "db1", frozenset({"db1", "lt1a"}), self.config
        )

    def test_leader_alone_is_not_enough(self):
        assert not self.policy.data_quorum_satisfied("db1", frozenset({"db1"}), self.config)

    def test_out_of_region_acks_do_not_help(self):
        acks = frozenset({"db1", "db2", "db3", "lt2a", "lt2b", "lt3a"})
        assert not self.policy.data_quorum_satisfied("db1", acks, self.config)

    def test_quorum_follows_the_leader(self):
        # With db2 leading, only r2 acks matter.
        assert self.policy.data_quorum_satisfied(
            "db2", frozenset({"db2", "lt2b"}), self.config
        )
        assert not self.policy.data_quorum_satisfied(
            "db2", frozenset({"db2", "lt1a", "lt1b"}), self.config
        )

    def test_learner_acks_never_count(self):
        assert not self.policy.data_quorum_satisfied(
            "db2", frozenset({"db2", "lrn1"}), self.config
        )


class TestSingleRegionDynamicElections:
    def setup_method(self):
        self.policy = FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        self.config = paper_topology()

    def test_candidate_region_plus_last_leader_region(self):
        context = ElectionContext(candidate="db2", last_leader_region="r1")
        granted = frozenset({"db2", "lt2a", "lt1a", "lt1b"})
        assert self.policy.election_quorum_satisfied(granted, self.config, context)

    def test_without_last_leader_region_majority_is_insufficient(self):
        context = ElectionContext(candidate="db2", last_leader_region="r1")
        granted = frozenset({"db2", "lt2a", "lt2b"})  # own region only
        assert not self.policy.election_quorum_satisfied(granted, self.config, context)

    def test_same_region_leader_needs_only_one_region(self):
        context = ElectionContext(candidate="lt1a", last_leader_region="r1")
        granted = frozenset({"lt1a", "lt1b"})
        assert self.policy.election_quorum_satisfied(granted, self.config, context)

    def test_unknown_leader_forces_pessimistic_quorum(self):
        context = ElectionContext(candidate="db2", last_leader_region=None)
        # Majorities in r1 and r2 but not r3: insufficient.
        granted = frozenset({"db2", "lt2a", "db1", "lt1a"})
        assert not self.policy.election_quorum_satisfied(granted, self.config, context)
        # Add an r3 majority: sufficient.
        granted = granted | frozenset({"db3", "lt3a"})
        assert self.policy.election_quorum_satisfied(granted, self.config, context)

    def test_non_voter_candidate_never_wins(self):
        context = ElectionContext(candidate="lrn1", last_leader_region="r2")
        everyone = frozenset(self.config.voter_names())
        assert not self.policy.election_quorum_satisfied(everyone, self.config, context)

    def test_describe(self):
        assert "single_region_dynamic" in self.policy.describe()


class TestMultiRegion:
    def setup_method(self):
        self.policy = FlexiRaftPolicy(FlexiMode.MULTI_REGION)
        self.config = paper_topology()

    def test_majority_of_region_majorities_commits(self):
        # r1 and r2 majorities = 2 of 3 regions.
        acks = frozenset({"db1", "lt1a", "db2", "lt2a"})
        assert self.policy.data_quorum_satisfied("db1", acks, self.config)

    def test_single_region_insufficient(self):
        acks = frozenset({"db1", "lt1a", "lt1b"})
        assert not self.policy.data_quorum_satisfied("db1", acks, self.config)

    def test_election_mirrors_data_rule(self):
        context = ElectionContext(candidate="db1", last_leader_region=None)
        granted = frozenset({"db1", "lt1a", "db3", "lt3b"})
        assert self.policy.election_quorum_satisfied(granted, self.config, context)


class TestForcedQuorum:
    def test_forced_set_elects(self):
        inner = FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        policy = ForcedQuorum(inner, frozenset({"db2"}))
        config = paper_topology()
        context = ElectionContext(candidate="db2", last_leader_region="r1")
        assert policy.election_quorum_satisfied(frozenset({"db2"}), config, context)
        # Data quorum still uses the real policy.
        assert not policy.data_quorum_satisfied("db2", frozenset({"db2"}), config)


class TestWatermarks:
    def test_region_watermark_is_majority_order_statistic(self):
        config = paper_topology()
        matches = {"db1": 100, "lt1a": 80, "lt1b": 60}
        for name in config.names():
            matches.setdefault(name, 0)
        assert region_quorum_watermark("r1", config, matches) == 80

    def test_all_region_watermarks(self):
        config = paper_topology()
        matches = {name: 50 for name in config.names()}
        matches["db3"] = matches["lt3a"] = matches["lt3b"] = 10
        watermarks = all_region_watermarks(config, matches)
        assert watermarks["r1"] == 50
        assert watermarks["r3"] == 10

    def test_safe_purge_horizon_is_slowest_region(self):
        config = paper_topology()
        matches = {name: 90 for name in config.names()}
        matches["lt2a"] = matches["lt2b"] = 20  # r2 majority stuck at 20
        # db2=90, lt2a=20, lt2b=20 → r2 majority watermark = 20
        assert safe_purge_horizon(config, matches) == 20


class TestFlexiRingBehaviour:
    def make_ring(self, seed=1):
        members = [
            voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
            voter("db3", "r3"), witness("lt3a", "r3"), witness("lt3b", "r3"),
        ]
        return RaftRing(
            members, seed=seed, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        )

    def test_commit_with_only_in_region_acks(self):
        ring = self.make_ring()
        ring.bootstrap("db1")
        # Cut off every remote region: in-region quorum must still commit.
        ring.net.isolate_region("r1")
        _, fut = ring.node("db1").propose(lambda o: b"local-quorum")
        ring.run(1.0)
        assert fut.done() and not fut.failed()

    def test_vanilla_majority_would_block_same_scenario(self):
        members = [
            voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
            voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
            voter("db3", "r3"), witness("lt3a", "r3"), witness("lt3b", "r3"),
        ]
        ring = RaftRing(members, policy=MajorityQuorum())
        ring.bootstrap("db1")
        ring.net.isolate_region("r1")
        _, fut = ring.node("db1").propose(lambda o: b"needs-5-of-9")
        ring.run(2.0)
        assert not fut.done()

    def test_failover_shifts_data_quorum_to_new_leader_region(self):
        ring = self.make_ring(seed=4)
        ring.bootstrap("db1")
        ring.commit_and_run(b"x")
        ring.host("db1").crash()
        ring.run(20.0)  # allow witness handoff to settle on a database
        new_leader = ring.current_leader()
        assert new_leader is not None and new_leader.name != "db1"
        assert ring.membership.member(new_leader.name).has_storage_engine
        # The data quorum moved: isolating the new leader's region from the
        # rest of the world must not block commits.
        ring.net.heal_all()
        new_region = ring.membership.member(new_leader.name).region
        ring.net.isolate_region(new_region)
        _, fut = new_leader.propose(lambda o: b"regional")
        ring.run(1.0)
        assert fut.done() and not fut.failed()

    def test_leader_completeness_across_regional_failover(self):
        # Commit entries with r1's quorum, then kill the whole commit
        # quorum's databases... no: kill just the leader; the new leader
        # (any region) must contain every committed entry.
        ring = self.make_ring(seed=8)
        ring.bootstrap("db1")
        opids = [ring.commit_and_run(f"c{i}".encode())[0] for i in range(5)]
        ring.run(2.0)  # replication to remote regions completes
        ring.host("db1").crash()
        new_leader = ring.wait_for_leader(exclude="db1")
        for opid in opids:
            entry = new_leader.storage.entry(opid.index)
            assert entry is not None and entry.opid == opid


# -- quorum views are memoized per config instance -------------------------------------

REGIONS = ("r1", "r2", "r3", "r4")
_kinds = {"voter": voter, "witness": witness, "learner": learner}
member_lists = st.lists(
    st.tuples(st.sampled_from(REGIONS), st.sampled_from(sorted(_kinds))), min_size=1, max_size=9
).map(lambda spec: tuple(_kinds[kind](f"m{i}", region) for i, (region, kind) in enumerate(spec)))
# Names a config may or may not hold: m0..m9 plus a stranger.
names = st.sampled_from([f"m{i}" for i in range(10)] + ["stranger"])
name_sets = st.frozensets(names, max_size=10)
contexts = st.builds(
    ElectionContext,
    names,
    st.sampled_from((None,) + REGIONS + ("r9",)),
    st.frozensets(st.sampled_from(REGIONS + ("r9",)), max_size=3),
)


def fresh_groups(members):
    groups = {}
    for member in members:
        if member.is_voter:
            groups.setdefault(member.region, []).append(member)
    return groups


def reference_data_quorum(mode, leader, ackers, members):
    groups = fresh_groups(members)
    if not groups:
        return False
    majority = [sum(m.name in ackers for m in g) >= len(g) // 2 + 1 for g in groups.values()]
    if mode == FlexiMode.MULTI_REGION:
        return sum(majority) >= majority_count(len(groups))
    leader_member = next((m for m in members if m.name == leader), None)
    if leader_member is None or leader_member.region not in groups:
        return False
    return majority[list(groups).index(leader_member.region)]


class TestQuorumViewsPerConfig:
    """``region_groups`` and ``MembershipConfig.member`` are computed once
    per (frozen) config instance. Whatever sequence of checks runs against
    one long-lived config must answer exactly as a fresh computation does,
    and a changed config must never see the old views."""

    @settings(max_examples=150)
    @given(
        member_lists,
        st.sampled_from(list(FlexiMode)),
        st.lists(st.tuples(names, name_sets, contexts), min_size=1, max_size=8),
    )
    def test_memoized_checks_agree_with_a_fresh_computation(self, members, mode, checks):
        policy = FlexiRaftPolicy(mode)
        config = MembershipConfig(members)
        for leader, acks, context in checks:
            fresh = MembershipConfig(members)  # no views computed yet
            assert policy.data_quorum_satisfied(leader, acks, config) == (
                policy.data_quorum_satisfied(leader, acks, fresh)
            ) == reference_data_quorum(mode, leader, acks, members)
            assert policy.election_quorum_satisfied(acks, config, context) == (
                policy.election_quorum_satisfied(acks, MembershipConfig(members), context)
            )
            assert config.member(leader) == next((m for m in members if m.name == leader), None)
            assert {r: list(g) for r, g in region_groups(config).items()} == fresh_groups(members)
            assert list(region_groups(config)) == list(fresh_groups(members))

    def test_views_are_kept_on_the_instance(self):
        config = paper_topology()
        assert region_groups(config) is region_groups(config)
        assert config.member("db2") is config.member("db2")

    def test_a_changed_config_never_sees_the_old_groups(self):
        policy = FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        config = paper_topology()
        assert not policy.data_quorum_satisfied("db4", frozenset({"db4"}), config)
        grown = config.with_added(voter("db4", "r4"), config_index=7)
        assert policy.data_quorum_satisfied("db4", frozenset({"db4"}), grown)
        assert list(region_groups(grown)) == ["r1", "r2", "r3", "r4"]
        assert list(region_groups(config)) == ["r1", "r2", "r3"]
        assert config.member("db4") is None and grown.member("db4") is not None

        shrunk = config.with_removed("lt1a", config_index=8)
        # r1 is down to db1 and lt1b, so an ack from the removed lt1a no
        # longer counts toward its majority.
        assert [m.name for m in region_groups(shrunk)["r1"]] == ["db1", "lt1b"]
        assert not policy.data_quorum_satisfied("db1", frozenset({"db1", "lt1a"}), shrunk)
        assert policy.data_quorum_satisfied("db1", frozenset({"db1", "lt1a"}), config)
        assert shrunk.member("lt1a") is None and config.member("lt1a") is not None

"""Topology spec and Table 1 derivation tests."""

from collections import Counter

import pytest

from repro.cluster.topology import (
    RegionSpec,
    ReplicaSetSpec,
    paper_topology,
    table1_roles,
)
from repro.errors import ReproError
from repro.raft.types import MemberType


class TestRegionSpec:
    def test_negative_counts_rejected(self):
        with pytest.raises(ReproError):
            RegionSpec("r", databases=-1)


class TestReplicaSetSpec:
    def test_member_naming_and_types(self):
        spec = ReplicaSetSpec(
            "rs", (RegionSpec("west", databases=2, logtailers=1, learners=1),)
        )
        members = {m.name: m for m in spec.members()}
        assert set(members) == {"west-db1", "west-db2", "west-lt1", "west-lrn1"}
        assert members["west-db1"].member_type == MemberType.VOTER
        assert members["west-db1"].has_storage_engine
        assert members["west-lt1"].is_witness
        assert members["west-lrn1"].member_type == MemberType.NON_VOTER

    def test_initial_primary_is_first_region_db(self):
        spec = ReplicaSetSpec("rs", (RegionSpec("a"), RegionSpec("b")))
        assert spec.initial_primary() == "a-db1"

    def test_initial_primary_requires_database(self):
        spec = ReplicaSetSpec("rs", (RegionSpec("a", databases=0, logtailers=1),))
        with pytest.raises(ReproError):
            spec.initial_primary()

    def test_no_regions_rejected(self):
        with pytest.raises(ReproError):
            ReplicaSetSpec("rs", ())

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ReproError):
            ReplicaSetSpec("rs", (RegionSpec("a"), RegionSpec("a")))

    def test_membership_roundtrip(self):
        spec = paper_topology()
        membership = spec.membership()
        assert len(membership.members) == len(spec.members())


class TestPaperTopology:
    def test_counts_match_section_6_1(self):
        # Primary + 2 in-region logtailers, 5 followers with 2 each, 2 learners.
        spec = paper_topology()
        members = spec.members()
        databases = [m for m in members if m.has_storage_engine and m.is_voter]
        witnesses = [m for m in members if m.is_witness]
        learners = [m for m in members if m.member_type == MemberType.NON_VOTER]
        assert len(databases) == 6  # primary + 5 failover-capable followers
        assert len(witnesses) == 12  # 2 per region x 6 regions
        assert len(learners) == 2
        assert len({m.region for m in members}) == 6

    def test_table1_roles(self):
        spec = paper_topology()
        rows = table1_roles(spec.membership(), leader="region0-db1")
        by_member = {r["member"]: r for r in rows}
        assert by_member["region0-db1"]["myraft_role"] == "Leader"
        assert by_member["region0-db1"]["accepts_writes"] == "Yes"
        assert by_member["region1-db1"]["myraft_role"] == "Follower"
        assert by_member["region1-db1"]["prior_setup_role"] == "Replica"
        assert by_member["region0-lt1"]["myraft_role"] == "Witness"
        assert by_member["region0-lt1"]["entity"] == "Logtailer"
        learner_row = by_member["region5-lrn1"]
        assert learner_row["myraft_role"] == "Learner"
        assert learner_row["database_role"] == "Non-failover replica"
        assert learner_row["serves_reads"] == "Yes"
        # The paper's rows: 1 leader, 5 followers, 2 learners, 12 witnesses,
        # and every member of a row plays it the same way.
        roles = Counter(r["myraft_role"] for r in rows)
        assert roles == {"Leader": 1, "Follower": 5, "Learner": 2, "Witness": 12}
        for row in rows:
            if row["myraft_role"] == "Witness":
                assert (row["entity"], row["prior_setup_role"], row["serves_reads"]) == (
                    "Logtailer", "Semi-Sync Acker", "No"
                )
            elif row["myraft_role"] == "Follower":
                assert (row["database_role"], row["accepts_writes"]) == ("Failover replica", "No")

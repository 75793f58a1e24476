"""Replicaset topology specifications (§2.1, Table 1, §6.1).

The paper's evaluation topology: a primary with two logtailers in its
region, five failover-capable followers (each with two logtailers in
their own regions), and two learners (non-failover replicas).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.raft.membership import MembershipConfig
from repro.raft.types import MemberInfo, MemberType


@dataclass(frozen=True)
class RegionSpec:
    """What one region contributes to the replicaset."""

    name: str
    databases: int = 1       # failover-capable MySQL instances (voters)
    logtailers: int = 2      # witnesses
    learners: int = 0        # non-voting MySQL instances

    def __post_init__(self) -> None:
        if self.databases < 0 or self.logtailers < 0 or self.learners < 0:
            raise ReproError(f"negative member count in region {self.name!r}")


@dataclass(frozen=True)
class ReplicaSetSpec:
    """A named replicaset across regions. The first region listed is where
    the initial primary lives."""

    replicaset_id: str
    regions: tuple = field(default_factory=tuple)  # tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ReproError("replicaset needs at least one region")
        names = [r.name for r in self.regions]
        if len(names) != len(set(names)):
            raise ReproError(f"duplicate region names: {names}")

    def members(self) -> list[MemberInfo]:
        members: list[MemberInfo] = []
        for region in self.regions:
            for i in range(region.databases):
                members.append(
                    MemberInfo(
                        f"{region.name}-db{i + 1}", region.name, MemberType.VOTER, True
                    )
                )
            for i in range(region.logtailers):
                members.append(
                    MemberInfo(
                        f"{region.name}-lt{i + 1}", region.name, MemberType.VOTER, False
                    )
                )
            for i in range(region.learners):
                members.append(
                    MemberInfo(
                        f"{region.name}-lrn{i + 1}",
                        region.name,
                        MemberType.NON_VOTER,
                        True,
                    )
                )
        return members

    def membership(self) -> MembershipConfig:
        return MembershipConfig(tuple(self.members()))

    def initial_primary(self) -> str:
        first = self.regions[0]
        if first.databases < 1:
            raise ReproError(f"first region {first.name!r} has no database for a primary")
        return f"{first.name}-db1"

    def database_names(self) -> list[str]:
        return [m.name for m in self.members() if m.has_storage_engine]


def paper_topology(
    replicaset_id: str = "rs0",
    follower_regions: int = 5,
    learners: int = 2,
) -> ReplicaSetSpec:
    """The §6.1 A/B-test topology: primary + 2 in-region logtailers, N
    followers with 2 logtailers each in distinct regions, and learners
    spread over the last regions."""
    regions = [RegionSpec("region0", databases=1, logtailers=2)]
    for i in range(1, follower_regions + 1):
        learners_here = 1 if i > follower_regions - learners else 0
        regions.append(
            RegionSpec(f"region{i}", databases=1, logtailers=2, learners=learners_here)
        )
    return ReplicaSetSpec(replicaset_id, tuple(regions))


def table1_roles(membership: MembershipConfig, leader: str) -> list[dict[str, str]]:
    """Reproduce Table 1: map every member to its MyRaft role, entity
    type, database role, and prior-setup role."""
    rows = []
    for member in membership.members:
        if member.name == leader:
            raft_role, db_role, prior = "Leader", "Primary", "Primary"
            reads, writes = "Yes", "Yes"
        elif member.is_witness:
            raft_role, db_role, prior = "Witness", "N/A", "Semi-Sync Acker"
            reads, writes = "No", "No"
        elif member.is_voter:
            raft_role, db_role, prior = "Follower", "Failover replica", "Replica"
            reads, writes = "Yes", "No"
        else:
            raft_role, db_role, prior = "Learner", "Non-failover replica", "Replica"
            reads, writes = "Yes", "No"
        rows.append(
            {
                "member": member.name,
                "myraft_role": raft_role,
                "entity": "Logtailer" if member.is_witness else "MySQL",
                "database_role": db_role,
                "prior_setup_role": prior,
                "serves_reads": reads,
                "accepts_writes": writes,
            }
        )
    return rows

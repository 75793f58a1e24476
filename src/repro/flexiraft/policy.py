"""FlexiRaft quorum policies (§4.1).

Modes:

- ``SINGLE_REGION_DYNAMIC`` — the paper's production mode. Data commits
  need a majority of the voters in the *leader's* region (the leader's
  self-vote plus one of its two in-region logtailers). The data quorum
  follows the leader dynamically. Leader elections need a majority in the
  candidate's own region *and* a majority in the last known leader's
  region — that intersection is what makes a new leader guaranteed to
  see every committed entry. When a candidate has no leader knowledge at
  all it falls back to the pessimistic requirement of a majority in
  every region.

- ``MULTI_REGION`` — commit requires in-region majorities in a majority
  of regions; the corresponding election quorum is the same (two
  majorities-of-majorities always intersect). This is the
  consistency-over-latency configuration the paper offers applications.

Candidates improve their leader knowledge from vote responses: voters
piggyback their own last-known-leader *and* their retained voting
history — the regions of candidates they granted real votes to at terms
newer than that leader. Any of those candidates might have won and
committed entries before anyone heard from it, so the election quorum
must intersect each one's potential data quorum. The TLA+-verified
original is more permissive; ours errs pessimistic, which preserves
safety.
"""

from __future__ import annotations

import enum

from repro.flexiraft.groups import group_majority, region_groups
from repro.raft.membership import MembershipConfig
from repro.raft.quorum import ElectionContext, QuorumPolicy, majority_count


class FlexiMode(enum.Enum):
    SINGLE_REGION_DYNAMIC = "single_region_dynamic"
    MULTI_REGION = "multi_region"


class FlexiRaftPolicy(QuorumPolicy):
    """Region-group quorums with dynamic data-quorum placement."""

    def __init__(self, mode: FlexiMode = FlexiMode.SINGLE_REGION_DYNAMIC) -> None:
        self.mode = mode

    # -- data commit -----------------------------------------------------------

    def data_quorum_satisfied(
        self, leader: str, ackers: frozenset, config: MembershipConfig
    ) -> bool:
        groups = region_groups(config)
        if not groups:
            return False
        if self.mode == FlexiMode.SINGLE_REGION_DYNAMIC:
            leader_member = config.member(leader)
            if leader_member is None:
                return False
            group = groups.get(leader_member.region, [])
            return group_majority(group, ackers)
        # MULTI_REGION: in-region majorities in a majority of regions.
        satisfied = sum(1 for group in groups.values() if group_majority(group, ackers))
        return satisfied >= majority_count(len(groups))

    def data_quorum_voters(self, leader: str, config: MembershipConfig) -> list[str]:
        if self.mode == FlexiMode.MULTI_REGION:
            return config.voter_names()
        leader_member = config.member(leader)
        if leader_member is None:
            return []
        return [m.name for m in config.voters_in_region(leader_member.region)]

    # -- leader election -----------------------------------------------------------

    def election_quorum_satisfied(
        self, granted: frozenset, config: MembershipConfig, context: ElectionContext
    ) -> bool:
        groups = region_groups(config)
        if not groups:
            return False
        if self.mode == FlexiMode.MULTI_REGION:
            satisfied = sum(1 for group in groups.values() if group_majority(group, granted))
            return satisfied >= majority_count(len(groups))

        candidate_member = config.member(context.candidate)
        if candidate_member is None or not candidate_member.is_voter:
            return False
        required_regions = {candidate_member.region}
        if context.last_leader_region is not None:
            if context.last_leader_region in groups:
                required_regions.add(context.last_leader_region)
        else:
            # No leader knowledge: the committed tail could be anywhere, so
            # require a majority from every region (the pessimistic case
            # the paper motivates single-region-dynamic against).
            required_regions = set(groups)
        # Voting history: a candidate granted a real vote at a term newer
        # than the last known leader may have *won* that election and
        # committed through its own region's data quorum before anyone
        # heard from it. Intersect every such region too; a region we
        # cannot map to a current group means the winner's data quorum is
        # unknowable, so fall back to the pessimistic all-regions quorum.
        possible = set(context.possible_leader_regions)
        if possible - set(groups):
            required_regions = set(groups)
        else:
            required_regions |= possible
        return all(
            group_majority(groups[region], granted)
            for region in required_regions
            if region in groups
        )

    def describe(self) -> str:
        return f"flexiraft:{self.mode.value}"

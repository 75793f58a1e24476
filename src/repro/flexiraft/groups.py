"""Commit-group construction (§4.1).

FlexiRaft groups are disjoint sets of voters built on physical proximity.
In our deployments (and the paper's), a group is a geographic region.
"""

from __future__ import annotations

from repro.raft.membership import MembershipConfig
from repro.raft.types import MemberInfo


def region_groups(config: MembershipConfig) -> dict[str, tuple[MemberInfo, ...]]:
    """Voters grouped by region; regions with no voters are absent.
    Computed once per config instance (see ``MembershipConfig``)."""
    return config.voters_by_region


def group_majority(group: tuple[MemberInfo, ...], names: frozenset) -> bool:
    """True when ``names`` contains a majority of the group."""
    if not group:
        return False
    acked = sum(1 for member in group if member.name in names)
    return acked >= len(group) // 2 + 1

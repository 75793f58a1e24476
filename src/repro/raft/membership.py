"""Ring membership: member lists and one-at-a-time changes (§2.2).

Membership is itself replicated through config log entries. Per the Raft
dissertation (and the paper), each member adopts a config entry as soon
as it is *written* to its log — not when committed — and only one change
may be in flight at a time, which preserves quorum intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import MembershipError
from repro.raft.types import MemberInfo, MemberType


@dataclass(frozen=True)
class MembershipConfig:
    """An immutable member list plus the log index that established it."""

    members: tuple  # tuple[MemberInfo, ...]
    config_index: int = 0

    def __post_init__(self) -> None:
        names = [m.name for m in self.members]
        if len(names) != len(set(names)):
            raise MembershipError(f"duplicate member names: {names}")

    # Views derived from ``members`` are computed on first use and kept on
    # the instance (the config is frozen, so they never go stale; a change
    # builds a new config, which starts without them). The commit rule
    # reads them once per pending index per ack.

    @cached_property
    def _by_name(self) -> dict[str, MemberInfo]:
        return {m.name: m for m in self.members}

    @cached_property
    def voters_by_region(self) -> dict[str, tuple[MemberInfo, ...]]:
        """Voters grouped by region, regions in first-member order;
        regions with no voters are absent. Shared: do not mutate."""
        groups: dict[str, list[MemberInfo]] = {}
        for member in self.voters():
            groups.setdefault(member.region, []).append(member)
        return {region: tuple(group) for region, group in groups.items()}

    def member(self, name: str) -> MemberInfo | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return self.member(name) is not None

    def names(self) -> list[str]:
        return [m.name for m in self.members]

    def voters(self) -> list[MemberInfo]:
        return [m for m in self.members if m.is_voter]

    def voter_names(self) -> list[str]:
        return [m.name for m in self.voters()]

    def learners(self) -> list[MemberInfo]:
        return [m for m in self.members if not m.is_voter]

    def peers_of(self, name: str) -> list[MemberInfo]:
        return [m for m in self.members if m.name != name]

    def regions(self) -> list[str]:
        seen: list[str] = []
        for member in self.members:
            if member.region not in seen:
                seen.append(member.region)
        return seen

    def voters_in_region(self, region: str) -> list[MemberInfo]:
        return [m for m in self.voters() if m.region == region]

    def majority_of(self, count: int) -> int:
        return count // 2 + 1

    def with_added(self, new_member: MemberInfo, config_index: int) -> "MembershipConfig":
        if new_member.name in self:
            raise MembershipError(f"member {new_member.name!r} already in ring")
        return MembershipConfig(self.members + (new_member,), config_index)

    def with_removed(self, name: str, config_index: int) -> "MembershipConfig":
        if name not in self:
            raise MembershipError(f"member {name!r} not in ring")
        remaining = tuple(m for m in self.members if m.name != name)
        if not any(m.is_voter for m in remaining):
            raise MembershipError("cannot remove the last voter")
        return MembershipConfig(remaining, config_index)

    # -- wire form (stored in config log entry metadata) ----------------------

    def to_wire(self) -> tuple:
        return tuple(
            (m.name, m.region, m.member_type.value, m.has_storage_engine) for m in self.members
        )

    @classmethod
    def from_wire(cls, wire: tuple, config_index: int) -> "MembershipConfig":
        members = tuple(
            MemberInfo(name, region, MemberType(member_type), bool(has_engine))
            for name, region, member_type, has_engine in wire
        )
        return cls(members, config_index)

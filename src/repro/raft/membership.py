"""Ring membership: member lists and one-at-a-time changes (§2.2).

Membership is itself replicated through config log entries. Per the Raft
dissertation (and the paper), each member adopts a config entry as soon
as it is *written* to its log — not when committed — and only one change
may be in flight at a time, which preserves quorum intersection.

:class:`MembershipConfig` is one immutable member list;
:class:`ConfigChanges` is a node's side of changing it: AddMember /
RemoveMember on the leader, adopting config entries as they are
written, rebuilding the config in effect from the log, and keeping it
durable across a purge or a snapshot install.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import MembershipError, NotLeaderError
from repro.raft.log_storage import ENTRY_KIND_CONFIG, LogEntry
from repro.raft.types import MemberInfo, MemberType, OpId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.raft.node import RaftNode
    from repro.sim.coro import SimFuture


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


class ConfigChanges:
    """One node's membership changes. The config in effect lives on the
    node (``node.membership``, read on every commit decision); this unit
    is the one place that replaces it and re-derives the node's own
    voter status from it."""

    def __init__(self, node: "RaftNode") -> None:
        self.node = node

    # -- leader side -----------------------------------------------------------

    def add_member(self, member: MemberInfo) -> "tuple[OpId, SimFuture]":
        """Leader-only AddMember; one change at a time."""
        config = self._check_leader()
        new_config = config.with_added(member, self.node.last_opid.index + 1)
        return self._propose("add", member.name, new_config)

    def remove_member(self, name: str) -> "tuple[OpId, SimFuture]":
        config = self._check_leader()
        if name == self.node.name:
            raise MembershipError("leader cannot remove itself; transfer first")
        new_config = config.with_removed(name, self.node.last_opid.index + 1)
        return self._propose("remove", name, new_config)

    def _check_leader(self) -> MembershipConfig:
        node = self.node
        if not node.is_leader:
            raise NotLeaderError(f"{node.name} is not leader")
        if node.membership.config_index > node.commit_index:
            raise MembershipError("a membership change is already in flight")
        return node.membership

    def _propose(
        self, change: str, subject: str, new_config: MembershipConfig
    ) -> "tuple[OpId, SimFuture]":
        node = self.node
        wire = new_config.to_wire()
        factory = node.hooks.config_payload(change, subject, wire)
        node._trace("raft.config_change", change=change, subject=subject)
        return node.propose(factory, ENTRY_KIND_CONFIG, metadata=wire)

    # -- the config in effect ----------------------------------------------------

    def adopt(self, config: MembershipConfig) -> None:
        node = self.node
        node.membership = config
        me = config.member(node.name)
        node._is_voter = me.is_voter if me else False

    def adopt_entry(self, entry: LogEntry) -> None:
        """A CONFIG entry was written: it takes effect now, and a leader
        starts (or stops) tracking the peers it adds (or removes)."""
        self.adopt(MembershipConfig.from_wire(entry.metadata, entry.opid.index))
        state = self.node.leader_state
        if state is not None:
            membership = self.node.membership
            for member in membership.peers_of(self.node.name):
                state.ensure_peer(member.name)
            for tracked in list(state.peers):
                if tracked not in membership:
                    state.drop_peer(tracked)

    def rebuild(self) -> None:
        """Latest config entry in the log wins; else the durable
        bootstrap config. Per Raft, a config is adopted as soon as it is
        written (§2.2)."""
        storage = self.node.storage
        index = storage.last_opid().index
        first = storage.first_index()
        while index >= first:
            entry = storage.entry(index)
            if entry is not None and entry.kind == ENTRY_KIND_CONFIG:
                self.adopt(MembershipConfig.from_wire(entry.metadata, entry.opid.index))
                return
            index -= 1
        durable = self.node._durable
        self.adopt(MembershipConfig.from_wire(
            durable["bootstrap_members"], durable.get("bootstrap_config_index", 0)
        ))

    # -- durability past the log -------------------------------------------------

    def keep_config_below(self, horizon: int) -> None:
        """The log is about to lose its entries below ``horizon`` (all
        committed). Make the config in effect there durable as the
        bootstrap config, which ``rebuild`` falls back to once the log
        holds no CONFIG entry: else a restart after a purge past the
        newest config reverts to the construction-time member list."""
        node = self.node
        config = node.membership
        if config.config_index >= horizon:
            # A newer config is retained: find the one in effect below it.
            config = None
            floor = max(node.storage.first_index(), node._durable["bootstrap_config_index"] + 1)
            for index in range(horizon - 1, floor - 1, -1):
                entry = node.storage.entry(index)
                if entry is not None and entry.kind == ENTRY_KIND_CONFIG:
                    config = MembershipConfig.from_wire(entry.metadata, index)
                    break
        if config is not None and config.config_index > node._durable["bootstrap_config_index"]:
            self.keep_as_bootstrap(config.to_wire(), config.config_index)

    def keep_as_bootstrap(self, members_wire: tuple, config_index: int) -> None:
        durable = self.node._durable
        durable["bootstrap_members"] = tuple(members_wire)
        durable["bootstrap_config_index"] = config_index

"""Proxy routing for AppendEntries (§4.2).

The router answers one question for the leader: *through which hops
should replication to member X travel?* :class:`RegionProxyRouter` —
what every node gets unless another router is injected — implements the
paper's topology (Figure 4): traffic to a remote region is funneled
through that region's designated proxy — its storage-engine member when
present, otherwise its first voter — and fans out in-region from there.
Members co-located with the leader, and the proxies themselves, are
reached directly. A router that returns no chain for anybody
(``StaticProxyRouter({})``) is how direct delivery is spelled.

Routing is pure data-plane: votes are never proxied (§4.2.1), and the
leader keeps all replication bookkeeping, so proxies can be bypassed at
any moment (route-around, §4.2.3) — or replaced — without protocol
consequences. A router must be a pure function of its arguments: the
leader memoizes its chains per membership in a :class:`RouteTable`,
which is also where the one volatile part of routing lives — which
member of a region currently does the proxy's job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.raft.membership import MembershipConfig


class ProxyRouter(ABC):
    """Strategy mapping (leader, destination) → proxy chain."""

    @abstractmethod
    def chain_for(
        self, leader: str, dst: str, config: MembershipConfig
    ) -> list[str] | None:
        """Hops between leader and ``dst`` (excluding both endpoints), or
        None/[] for direct delivery."""


class RegionProxyRouter(ProxyRouter):
    """One proxy per remote region (the region's database member)."""

    def chain_for(
        self, leader: str, dst: str, config: MembershipConfig
    ) -> list[str] | None:
        leader_member = config.member(leader)
        dst_member = config.member(dst)
        if leader_member is None or dst_member is None:
            return None
        if leader_member.region == dst_member.region:
            return None
        proxy = self._region_proxy(dst_member.region, config)
        if proxy is None or proxy == dst or proxy == leader:
            return None
        return [proxy]

    def _region_proxy(self, region: str, config: MembershipConfig) -> str | None:
        members = [m for m in config.members if m.region == region]
        if not members:
            return None
        for member in members:
            if member.has_storage_engine:
                return member.name
        return members[0].name


class StaticProxyRouter(ProxyRouter):
    """Explicit chains, for tests and unusual topologies.

    ``chains`` maps destination name → hop list.
    """

    def __init__(self, chains: dict[str, list[str]]) -> None:
        self._chains = chains

    def chain_for(
        self, leader: str, dst: str, config: MembershipConfig
    ) -> list[str] | None:
        chain = self._chains.get(dst)
        if not chain or leader in chain or dst in chain:
            return None
        return list(chain)


class RouteTable:
    """The leader's routing table: the router's chains, re-rooted.

    A proxy the leader reaches directly and the members one hop behind it
    form a *group*; the member the group's payload travels through is its
    *head*. The router names the **preferred** head — the static choice,
    and the only one a fault-free ring ever runs. The role itself is
    volatile leader state: it moves on evidence the leader already keeps
    in :class:`~repro.raft.replication.PeerProgress` (DESIGN.md §15,
    rule 4), and an acting head is remembered only while it differs from
    the preferred one. ``chains`` / ``behind`` are what replication
    consumes: destination → hops, and head → the members it carries.
    Chains longer than one hop, and groups whose proxy is itself routed,
    are left as the router gave them.
    """

    def __init__(self, leader: str, config: MembershipConfig, router: ProxyRouter) -> None:
        self.config = config
        self.router = router
        chains: dict[str, tuple] = {}
        behind: dict[str, list[str]] = {}
        for member in config.peers_of(leader):
            chain = router.chain_for(leader, member.name, config)
            if chain:
                chains[member.name] = tuple(chain)
                if len(chain) == 1:
                    behind.setdefault(chain[0], []).append(member.name)
        self._static = (chains, behind)
        self.chains, self.behind = chains, behind
        # Preferred head first, then membership order: the tie-break.
        self.groups: dict[str, tuple] = {
            proxy: (proxy, *members)
            for proxy, members in behind.items()
            if proxy not in chains and proxy in config
        }
        self.acting: dict[str, str] = {}  # preferred head → acting head

    def review_heads(self, peers: dict) -> list[tuple[str, str, str]]:
        """Apply the head rule to every group; returns one ``(group,
        new head, reason)`` per role that moved."""
        moved = []
        for preferred, members in self.groups.items():
            head = self.acting.get(preferred, preferred)
            progress = peers[head]
            if head == preferred:
                if progress.answering:
                    continue  # the fault-free pass ends here
                reason = "silent"
            else:
                own = peers[preferred]
                if (
                    own.answering
                    and not own.routed_around
                    and own.sent_horizon >= progress.sent_horizon
                ):
                    reason = "level"
                elif not progress.answering:
                    reason = "silent"
                else:
                    continue
            if reason == "level":
                successor = preferred
            else:
                successor = self._most_advanced(members, peers)
                if successor is None:
                    # Nobody answers: the role stays put, and every
                    # member is probed direct.
                    continue
            if successor == preferred:
                del self.acting[preferred]
            else:
                self.acting[preferred] = successor
            moved.append((preferred, successor, reason))
        if moved:
            self._reroot()
        return moved

    @staticmethod
    def _most_advanced(members: tuple, peers: dict) -> str | None:
        """The answering member with the highest sent horizon (ties:
        first in ``members``), or None."""
        best, horizon = None, -1
        for name in members:
            progress = peers[name]
            if progress.answering and progress.sent_horizon > horizon:
                best, horizon = name, progress.sent_horizon
        return best

    def _reroot(self) -> None:
        chains, behind = dict(self._static[0]), dict(self._static[1])
        for preferred, head in self.acting.items():
            others = [name for name in self.groups[preferred] if name != head]
            del chains[head], behind[preferred]
            chains.update(dict.fromkeys(others, (head,)))
            behind[head] = behind.get(head, []) + others
        self.chains, self.behind = chains, behind

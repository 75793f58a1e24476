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
any moment (route-around, §4.2.3) without protocol consequences. A
router must be a pure function of its arguments: the leader memoizes
chains per membership.
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

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
member of a region currently does the proxy's job. :class:`AckFolds` is
the head's half of the tree on the way back: riders' acks folded into
the head's own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.raft.membership import MembershipConfig
from repro.raft.messages import (
    FANOUT_DEST_BYTES,
    RPC_HEADER_BYTES,
    AppendEntriesRequest,
    AppendEntriesResponse,
)
from repro.raft.types import OpId


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


class _Fold:
    """One forwarded window's acks, held by its head."""

    __slots__ = ("last_opid", "waiting", "acks", "own", "deadline")

    def __init__(self, last_opid: OpId, riders: tuple, deadline: float) -> None:
        self.last_opid = last_opid
        self.waiting = set(riders)
        self.acks: list[AppendEntriesResponse] = []
        self.own: AppendEntriesResponse | None = None
        self.deadline = deadline

    def folded(self) -> AppendEntriesResponse:
        """The head's own ack, naming every rider folded into it."""
        own = self.own
        if not self.acks:
            return own
        riders = tuple(ack.follower for ack in self.acks)
        return AppendEntriesResponse(
            term=own.term,
            follower=own.follower,
            success=True,
            last_opid=own.last_opid,
            leader=own.leader,
            riders=riders,
            wire_size=RPC_HEADER_BYTES + FANOUT_DEST_BYTES * len(riders),
        )


def _window_key(request: AppendEntriesRequest) -> tuple[int, int]:
    return (request.term, request.prev_opid.index + len(request.entries))


class AckFolds:
    """A head's held acks (DESIGN.md §15, rule 1): one WAN ack per
    region per window.

    A head that forwards an entry-bearing window to its riders opens a
    *fold* for it, keyed by ``(term, last index)``; the riders answer
    through the head, over the LAN. A rider's successful ack of the
    window is folded. The head's own ack is held until every rider has
    answered or the fold's deadline has passed, and then crosses the WAN
    once, naming the folded riders. Anything a fold cannot vouch for is
    relayed alone: a reject (which also stops every fold waiting for that
    rider), an ack of another ``last_opid``, one from a member the fold
    does not wait for, or one that arrives after the fold closed. A head
    whose own answer is a reject sends it at once, followed by the rider
    acks it held.

    Every method returns the responses to send now, in order. Counters go
    to ``metrics``: ``acks_folded`` per rider ack folded,
    ``folds_expired`` per fold whose deadline passed with a rider still
    silent — a rider that keeps it rising is dying.
    """

    def __init__(self, metrics: dict[str, int]) -> None:
        self._folds: dict[tuple[int, int], _Fold] = {}
        self._metrics = metrics

    def open(self, request: AppendEntriesRequest, deadline: float) -> None:
        """The head forwarded ``request`` to its ``fanout``. Deadlines
        arrive in order: the folds stay sorted by them."""
        key = _window_key(request)
        if key not in self._folds:
            self._folds[key] = _Fold(request.entries[-1].opid, request.fanout, deadline)

    def own(
        self, request: AppendEntriesRequest, response: AppendEntriesResponse
    ) -> list[AppendEntriesResponse]:
        """The head's own answer to a window it forwarded."""
        key = _window_key(request)
        fold = self._folds.get(key)
        if fold is None or fold.own is not None:
            return [response]
        if not response.success or response.last_opid != fold.last_opid:
            del self._folds[key]
            return [response, *fold.acks]
        fold.own = response
        if fold.waiting:
            return []
        del self._folds[key]
        return [fold.folded()]

    def rider(self, response: AppendEntriesResponse) -> list[AppendEntriesResponse]:
        """An answer from a member behind this head, on its way to the
        leader."""
        if not response.success:
            return [response, *self._forget(response.follower)]
        key = (response.term, response.last_opid.index)
        fold = self._folds.get(key)
        if (
            fold is None
            or response.follower not in fold.waiting
            or response.last_opid != fold.last_opid
            or response.degraded_through
        ):
            return [response]
        fold.waiting.remove(response.follower)
        fold.acks.append(response)
        self._metrics["acks_folded"] += 1
        if fold.waiting or fold.own is None:
            return []
        del self._folds[key]
        return [fold.folded()]

    def _forget(self, rider: str) -> list[AppendEntriesResponse]:
        """``rider`` answered with a reject: no fold waits for it."""
        ready = []
        for key, fold in list(self._folds.items()):
            if rider in fold.waiting:
                fold.waiting.remove(rider)
                if not fold.waiting and fold.own is not None:
                    del self._folds[key]
                    ready.append(fold.folded())
        return ready

    def expire(self, now: float) -> list[AppendEntriesResponse]:
        """Close every fold whose deadline has passed: the riders still
        silent will be relayed alone, if they answer at all."""
        ready = []
        for key, fold in list(self._folds.items()):
            if fold.deadline > now:
                break
            if fold.waiting:
                self._metrics["folds_expired"] += 1
                fold.waiting.clear()
            if fold.own is not None:
                del self._folds[key]
                ready.append(fold.folded())
        return ready

    def next_deadline(self) -> float | None:
        """When the oldest fold still waiting for a rider expires."""
        for fold in self._folds.values():
            if fold.waiting:
                return fold.deadline
        return None

"""The region tree for AppendEntries (§4.2): one proxy hop.

The router answers one question for the leader: *which member, if any,
does replication to member X travel through?* :class:`RegionProxyRouter`
— what every node gets unless another router is injected — implements
the paper's topology (Figure 4): traffic to a remote region is funneled
through that region's designated proxy — its storage-engine member when
present, otherwise its first member — and fans out in-region from
there. Members co-located with the leader, and the proxies themselves,
are reached directly. A router that names no proxy for anybody
(``StaticProxyRouter({})``) is how direct delivery is spelled.

Routing is pure data-plane: votes are never proxied (§4.2.1), and the
leader keeps all replication bookkeeping, so proxies can be bypassed at
any moment (routed around, §4.2.3) — or replaced — without protocol
consequences. A router must be a pure function of its arguments: the
leader memoizes its answers per membership in a :class:`RouteTable`,
which is also where the one volatile part of routing lives — which
member of a region currently does the proxy's job.

:class:`ProxyHop` is a member's half of the tree: forwarding a head's
window to its riders, reconstituting PROXY_OPs, and answering through
the head, where :class:`AckFolds` folds riders' acks into the head's own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Any, Callable

from repro.errors import LogTruncatedError
from repro.raft.membership import MembershipConfig
from repro.raft.messages import (
    FANOUT_DEST_BYTES,
    RPC_HEADER_BYTES,
    AppendEntriesRequest,
    AppendEntriesResponse,
)
from repro.raft.types import OpId

# How long a proxy waits for a missing entry to show up in its local log
# before degrading the proxied message to a heartbeat (§4.2.1), and how
# long a head holds riders' acks for folding.
PROXY_WAIT_TIMEOUT = 0.05


class ProxyRouter(ABC):
    """Strategy mapping (leader, destination) → proxy."""

    @abstractmethod
    def proxy_for(self, leader: str, dst: str, config: MembershipConfig) -> str | None:
        """The member ``dst``'s appends travel through, or None for
        direct delivery."""


class RegionProxyRouter(ProxyRouter):
    """One proxy per remote region (the region's database member)."""

    def proxy_for(self, leader: str, dst: str, config: MembershipConfig) -> str | None:
        leader_member = config.member(leader)
        dst_member = config.member(dst)
        if leader_member is None or dst_member is None:
            return None
        if leader_member.region == dst_member.region:
            return None
        proxy = self._region_proxy(dst_member.region, config)
        if proxy is None or proxy == dst or proxy == leader:
            return None
        return proxy

    def _region_proxy(self, region: str, config: MembershipConfig) -> str | None:
        members = [m for m in config.members if m.region == region]
        if not members:
            return None
        for member in members:
            if member.has_storage_engine:
                return member.name
        return members[0].name


class StaticProxyRouter(ProxyRouter):
    """An explicit tree, for tests and unusual topologies.

    ``proxies`` maps destination name → proxy name.
    """

    def __init__(self, proxies: dict[str, str]) -> None:
        self._proxies = proxies

    def proxy_for(self, leader: str, dst: str, config: MembershipConfig) -> str | None:
        proxy = self._proxies.get(dst)
        if proxy == leader or proxy == dst:
            return None
        return proxy


class RouteTable:
    """The leader's routing table: the router's tree, re-rooted.

    A proxy the leader reaches directly and the members behind it form a
    *group*; the member the group's payload travels through is its
    *head*. The router names the **preferred** head — the static choice,
    and the only one a fault-free ring ever runs. The role itself is
    volatile leader state: it moves on evidence the leader already keeps
    in :class:`~repro.raft.replication.PeerProgress` (DESIGN.md §15,
    rule 4), and an acting head is remembered only while it differs from
    the preferred one. ``heads`` / ``behind`` are what replication
    consumes: destination → head, and head → the members it carries. A
    proxy that is itself behind a proxy heads no group.
    """

    def __init__(self, leader: str, config: MembershipConfig, router: ProxyRouter) -> None:
        self.config = config
        self.router = router
        heads: dict[str, str] = {}
        behind: dict[str, list[str]] = {}
        for member in config.peers_of(leader):
            proxy = router.proxy_for(leader, member.name, config)
            if proxy is not None:
                heads[member.name] = proxy
                behind.setdefault(proxy, []).append(member.name)
        self._static = (heads, behind)
        self.heads, self.behind = heads, behind
        # Preferred head first, then membership order: the tie-break.
        self.groups: dict[str, tuple] = {
            proxy: (proxy, *members)
            for proxy, members in behind.items()
            if proxy not in heads and proxy in config
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
        heads, behind = dict(self._static[0]), dict(self._static[1])
        for preferred, head in self.acting.items():
            others = [name for name in self.groups[preferred] if name != head]
            del heads[head], behind[preferred]
            heads.update(dict.fromkeys(others, head))
            behind[head] = behind.get(head, []) + others
        self.heads, self.behind = heads, behind


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


class ProxyHop:
    """A member's half of the region tree. Rebuilt per incarnation; like
    :class:`~repro.raft.election.Election` it acts only through
    ``send``, ``call_after`` and ``now``, reads the log through the node,
    and counts into the node's ``metrics``.

    As a head it forwards a window to the riders named in its
    ``fanout`` and folds their acks into its own (:class:`AckFolds`); as
    a proxy it turns a PROXY_OP back into the payload from its own log
    (§4.2.1) — waiting ``PROXY_WAIT_TIMEOUT`` for entries not yet there,
    and degrading to a heartbeat when the wait runs out or the entries
    were purged."""

    def __init__(self, node: Any, send: Callable, call_after: Callable, now: Callable) -> None:
        self.node = node
        self.send = send
        self.call_after = call_after
        self.now = now
        self._metrics = node.metrics
        # PROXY_OPs waiting for their entries to reach our log.
        self._waiting: list[AppendEntriesRequest] = []
        # Riders' acks held for folding, and the one timer that closes
        # the oldest fold at its deadline.
        self._folds = AckFolds(node.metrics)
        self._fold_timer_armed = False

    # -- as a head: riders and their acks ------------------------------------------

    def forward(self, request: AppendEntriesRequest) -> None:
        """We are the head this append is addressed to, and members
        behind us stand at the same window: hand each the request we
        hold — no log read, no wait. Their acks come back through us and
        are folded into ours, so the region answers the window with one
        WAN message, as it was sent one."""
        self._metrics["proxy_forwards"] += len(request.fanout)
        via = self.node.name
        for dest in request.fanout:
            # (Spelled out, not ``replace``: once per rider per window.)
            self.send(
                dest,
                AppendEntriesRequest(
                    term=request.term,
                    leader=request.leader,
                    prev_opid=request.prev_opid,
                    commit_opid=request.commit_opid,
                    entries=request.entries,
                    final_dest=dest,
                    via=via,
                ),
            )
        self._folds.open(request, self.now() + PROXY_WAIT_TIMEOUT)
        if not self._fold_timer_armed:
            self._fold_timer_armed = True
            self.call_after(PROXY_WAIT_TIMEOUT, self._expire_folds)

    def _expire_folds(self) -> None:
        """The fold timer: close what is due, re-arm for the oldest fold
        still waiting (one timer per head, never one per window)."""
        now = self.now()
        for response in self._folds.expire(now):
            self.send(response.leader, response)
        deadline = self._folds.next_deadline()
        if deadline is None:
            self._fold_timer_armed = False
        else:
            self.call_after(deadline - now, self._expire_folds)

    def answer(self, request: AppendEntriesRequest, response: AppendEntriesResponse) -> None:
        """Send our ``response`` to ``request``: through the head it came
        via; held for our riders' if we are that head (rule 1); else
        straight to the leader."""
        if request.via:
            self.send(request.via, response)
        elif request.fanout:
            for ready in self._folds.own(request, response):
                self.send(ready.leader, ready)
        else:
            self.send(request.leader, response)

    def relay(self, response: AppendEntriesResponse) -> None:
        """An answer that came through us on its way to the leader:
        folded into our own ack, or passed on alone."""
        for ready in self._folds.rider(response):
            self.send(ready.leader, ready)

    # -- as a proxy: PROXY_OPs -------------------------------------------------------

    def on_proxy_op(self, request: AppendEntriesRequest) -> None:
        """Reconstitute the payload from our log and send it on, or
        degrade to a heartbeat if we can't (§4.2.1)."""
        first = self.node.storage.first_index()
        if request.proxy_opids[0].index < first:
            # Purged: no wait brings it back. Our log serves from ``first``.
            self._degrade(request, first - 1)
            return
        entries = self._reconstitute(request)
        if entries is None:
            # §4.2.1: wait PROXY_WAIT_TIMEOUT for the missing entry to
            # arrive locally; re-check as our own log grows; degrade to a
            # heartbeat at the deadline.
            self._waiting.append(request)
            self.call_after(PROXY_WAIT_TIMEOUT, self._expire_wait, request)
            return
        self._forward_reconstituted(request, entries)

    def on_log_grew(self) -> None:
        """Our log grew: satisfy the PROXY_OPs waiting for it."""
        if not self._waiting:
            return
        still_waiting = []
        for request in self._waiting:
            entries = self._reconstitute(request)
            if entries is None:
                still_waiting.append(request)
            else:
                self._forward_reconstituted(request, entries)
        self._waiting = still_waiting

    def _reconstitute(self, request: AppendEntriesRequest) -> tuple | None:
        """The PROXY_OP's entries from our own log, or None while any is
        missing (or is another term's)."""
        entries = []
        for opid in request.proxy_opids:
            try:
                entry = self.node._entry_for_read(opid.index)
            except LogTruncatedError:
                return None
            if entry is None or entry.opid != opid:
                return None
            entries.append(entry)
        return tuple(entries)

    def _expire_wait(self, request: AppendEntriesRequest) -> None:
        if request in self._waiting:
            self._waiting.remove(request)
            self._degrade(request, request.proxy_opids[-1].index)

    def _degrade(self, request: AppendEntriesRequest, through: int) -> None:
        """Cannot reconstitute: the destination gets a heartbeat, and its
        response's echo of ``through`` tells the leader to serve this
        destination direct that far — O(lagging peers) degrades, never a
        loop."""
        self._metrics["proxy_degrades"] += 1
        self.node._trace("raft.proxy_degraded", dest=request.final_dest)
        self.send(
            request.final_dest,
            replace(request, proxy_opids=(), degraded_through=through, via=self.node.name),
        )

    def _forward_reconstituted(self, request: AppendEntriesRequest, entries: tuple) -> None:
        self._metrics["proxy_forwards"] += 1
        self.send(
            request.final_dest,
            replace(request, entries=entries, proxy_opids=(), via=self.node.name),
        )

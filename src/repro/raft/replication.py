"""Leader replication: per-peer progress, the commit marker, and the
send side (:class:`Replicator`).

Per-peer progress (next/match indexes, whether the peer answers) plus the
commit-marker advance: after every ack the leader asks the quorum policy
which indexes are now consensus-committed. Proxying (§4.2.1) keeps *all*
of this on the leader — proxies carry no bookkeeping — which is what
keeps the design "effectively standard Raft from a safety perspective".
The member side of the region tree is :class:`~repro.raft.proxy.ProxyHop`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import LogTruncatedError
from repro.raft.log_storage import LogEntry
from repro.raft.membership import MembershipConfig
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse
from repro.raft.proxy import ProxyRouter, RouteTable
from repro.raft.quorum import QuorumPolicy
from repro.raft.types import OpId

# Adaptive per-append window: starts at this many entries, doubles on
# every cleanly acked window up to MAX_ENTRIES_PER_APPEND, and collapses
# back on a rejection or retry timeout (slow-start, the Fast Raft /
# TCP-style flow-control shape).
APPEND_WINDOW_MIN = 8
MAX_ENTRIES_PER_APPEND = 64
# Byte cap on the entries one AppendEntries window carries.
MAX_BYTES_PER_APPEND = 1 << 20
# Entry-bearing AppendEntries a peer may have in flight (sent, unacked)
# before the leader stops pipelining new windows to it. Retries after
# APPEND_RETRY_INTERVAL still go out regardless.
MAX_INFLIGHT_WINDOWS = 4
# Resend window: if a peer hasn't acked for this long, retry (and a
# proxy that stops answering is routed around, §4.2.3).
APPEND_RETRY_INTERVAL = 0.25


@dataclass
class PeerProgress:
    """What the leader believes about one peer."""

    next_index: int
    match_index: int = 0
    # Has this peer acked an append to *this* leader? Until it has, it is
    # not a hand-off target: a crashed member never does.
    acked_in_term: bool = False
    # The leader's one liveness bit for this peer. Cleared when an
    # entry-bearing window goes unacked for the retry interval, set by any
    # AppendEntries response. A peer that is not answering is sent only
    # empty appends (probes), direct; it neither rides nor heads a region.
    answering: bool = True
    # Route-around (§4.2.3), per destination: windows go direct, not
    # through this peer's proxy, until its match index reaches this — as
    # far as the proxy said its log cannot serve (a degrade).
    direct_until: int = 0
    last_sent_index: int = 0
    last_sent_time: float = -1e9
    # Commit marker carried by the newest message sent to this peer; a
    # forced heartbeat is redundant only if the peer already saw the
    # current one (heartbeat suppression).
    last_sent_commit: int = -1
    # Adaptive per-append entry cap.
    window_entries: int = APPEND_WINDOW_MIN
    # Tail indexes of entry-bearing appends sent but not yet acked.
    inflight: list = field(default_factory=list)
    # When the oldest of them was sent, or the newest ack since arrived:
    # a rider's retry clock. Every ride refreshes its last_sent_time, so
    # that one never runs out for a rider whose head keeps being sent.
    inflight_since: float = 0.0

    @property
    def routed_around(self) -> bool:
        return self.direct_until > self.match_index

    @property
    def sent_horizon(self) -> int:
        """Newest index this peer holds or has been sent: what a member
        behind it, were it a proxy, may be served from its log."""
        return max(self.match_index, self.last_sent_index)

    def acked(self, index: int) -> None:
        self.acked_in_term = self.answering = True
        self.match_index = max(self.match_index, index)
        self.next_index = max(self.next_index, self.match_index + 1)
        if self.inflight:
            remaining = [tail for tail in self.inflight if tail > index]
            cleanly_acked = len(self.inflight) - len(remaining)
            self.inflight = remaining
            # Slow-start growth: each cleanly acked window doubles the
            # next window, up to MAX_ENTRIES_PER_APPEND.
            for _ in range(cleanly_acked):
                self.window_entries = min(MAX_ENTRIES_PER_APPEND, self.window_entries * 2)

    def route_around(self, until: int) -> None:
        """The proxy degraded this peer's window to a heartbeat: nothing
        past ``match_index`` arrived, so rewind the send cursor and go
        direct through ``until``. The link itself is fine — the adaptive
        window keeps its size."""
        self.direct_until = max(self.direct_until, until)
        self.inflight.clear()
        self.last_sent_index = self.match_index
        self.last_sent_time = -1e9

    def on_rejected(self, last_index: int) -> None:
        """AppendEntries rejected by a peer whose log ends at
        ``last_index``: whatever was in flight toward it is junk (wrong
        prev), and the link/log state is suspect — collapse the window
        back to slow-start and resend from one entry earlier, or from
        just past its tail. A reject is an answer."""
        self._collapse()
        self.answering = True
        self.next_index = max(1, min(self.next_index - 1, last_index + 1))
        self.rewind()

    def rewind(self) -> None:
        """Forget what was sent: the next pass sends from ``next_index``."""
        self.last_sent_index = 0
        self.last_sent_time = -1e9

    def on_retry_timeout(self) -> None:
        """An unacked window went silent past the retry interval: the
        peer is probed until it answers, and what was sent past its match
        index is sent again after that."""
        self._collapse()
        self.answering = False
        self.last_sent_index = self.match_index

    def _collapse(self) -> None:
        self.inflight.clear()
        self.window_entries = APPEND_WINDOW_MIN

    def send_window_start(self, last_log_index: int, now: float, force: bool) -> int | None:
        """Where an AppendEntries to this peer should start, or None for
        nothing to send. ``last_log_index + 1`` means a pure heartbeat
        (carrying only the commit marker). The leader groups peers by
        this cursor so one storage read serves every peer at the same
        start (shared fan-out reads).

        A peer that is not answering is probed at ``next_index`` — the
        caller sends it no entries — on a forced round or once per
        ``APPEND_RETRY_INTERVAL``. Pipelining new tail stops while
        ``MAX_INFLIGHT_WINDOWS`` appends are outstanding; the retry path
        (no ack for ``APPEND_RETRY_INTERVAL``) always goes through, and when
        windows were in flight it turns into the first probe
        (:meth:`on_retry_timeout`)."""
        if not self.answering:
            if force or now - self.last_sent_time >= APPEND_RETRY_INTERVAL:
                return self.next_index  # probe
            return None
        if self.next_index > last_log_index:
            return last_log_index + 1 if force else None  # pure heartbeat
        if now - self.last_sent_time >= APPEND_RETRY_INTERVAL:
            if self.inflight:
                self.on_retry_timeout()
            return self.next_index  # (re)send from what's unacked, or probe
        if self.last_sent_index < last_log_index:
            if len(self.inflight) >= MAX_INFLIGHT_WINDOWS:
                return None  # at the in-flight cap: wait for acks
            return max(self.next_index, self.last_sent_index + 1)  # pipeline new tail
        if force:
            return last_log_index + 1  # heartbeat carrying the commit marker
        return None

    def heartbeat_redundant(self, now: float, window: float, commit_index: int) -> bool:
        """Whether a heartbeat to this answering peer is pure duplication:
        traffic already went out within ``window`` AND carried the
        current commit marker, so the follower's failure detector was
        fed and its commit point cannot advance further."""
        return now - self.last_sent_time < window and self.last_sent_commit >= commit_index


@dataclass
class LeaderState:
    """All volatile leader bookkeeping; created on election, discarded on
    step-down."""

    term: int
    self_name: str
    last_log_index: int
    peers: dict[str, PeerProgress] = field(default_factory=dict)
    # Witness leaders only (§4.1): hand-off targets already attempted in
    # this term. None = no hand-off owed (a database leads, or the
    # TimeoutNow has gone out).
    handoff_tried: set | None = None
    _routes: RouteTable | None = None
    _commit_voters: tuple | None = None

    @classmethod
    def fresh(
        cls,
        term: int,
        self_name: str,
        config: MembershipConfig,
        last_log_index: int,
        silent: frozenset = frozenset(),
    ) -> "LeaderState":
        """Every peer starts answering except those in ``silent``: the
        election's presumed-dead predecessor, if it never answered."""
        state = cls(term, self_name, last_log_index)
        for member in config.peers_of(self_name):
            state.ensure_peer(member.name).answering = member.name not in silent
        return state

    def ensure_peer(self, name: str) -> PeerProgress:
        """Track a peer added by a mid-term membership change."""
        progress = self.peers.get(name)
        if progress is None:
            progress = self.peers[name] = PeerProgress(next_index=self.last_log_index + 1)
        return progress

    def drop_peer(self, name: str) -> None:
        self.peers.pop(name, None)

    def match_of(self, name: str) -> int:
        if name == self.self_name:
            return self.last_log_index
        progress = self.peers.get(name)
        return progress.match_index if progress else 0

    def ackers_at(self, index: int) -> frozenset:
        """Voter-or-not names known to hold entries through ``index``
        (the caller intersects with voters)."""
        names = {self.self_name} if self.last_log_index >= index else set()
        names.update(name for name, p in self.peers.items() if p.match_index >= index)
        return frozenset(names)

    def counts_toward_commit(
        self, name: str, policy: QuorumPolicy, config: MembershipConfig
    ) -> bool:
        """Whether ``name``'s ack can move the commit marker: only the
        voters ``policy`` counts can (under single-region-dynamic, the
        leader's region), so nobody else's ack is worth a commit search.
        Policies are pure, so the set lives as long as the membership."""
        memo = self._commit_voters
        if memo is None or memo[0] is not policy or memo[1] is not config:
            voters = frozenset(policy.data_quorum_voters(self.self_name, config))
            memo = self._commit_voters = (policy, config, voters)
        return name in memo[2]

    def advance_commit(
        self,
        current_commit: int,
        policy: QuorumPolicy,
        config: MembershipConfig,
        term_at: "callable",
    ) -> int:
        """Highest index committable under ``policy``.

        Standard Raft restriction applies: only entries of the current
        term commit by counting acks; earlier-term entries commit
        transitively once a current-term entry does.
        """
        new_commit = current_commit
        index = current_commit + 1
        while index <= self.last_log_index:
            if not policy.data_quorum_satisfied(self.self_name, self.ackers_at(index), config):
                break
            if term_at(index) == self.term:
                new_commit = index
            index += 1
        return new_commit

    def most_caught_up_peer(self, candidates: list[str]) -> str | None:
        """The candidate with the highest match index (ties: first) among
        those that have acked this leader; a peer that never answered in
        this term is not a candidate, whatever its match index says."""
        best_name, best_match = None, -1
        for name in candidates:
            progress = self.peers.get(name)
            if progress is None or not progress.acked_in_term:
                continue
            if progress.match_index > best_match:
                best_name, best_match = name, progress.match_index
        return best_name

    # -- the region tree (§4.2) ------------------------------------------------

    def silent(self) -> list[str]:
        """Peers that are not answering, by name."""
        return sorted(name for name, progress in self.peers.items() if not progress.answering)

    def routes(self, config: MembershipConfig, router: ProxyRouter) -> tuple[dict, dict, list]:
        """``(head by destination, destinations behind each head, heads
        moved)`` for this pass, every proxy group rooted at the head the
        rule picks from the progress above (:class:`RouteTable`). Routers
        are pure, so the static table lives as long as the membership.
        A re-root clears the group's routing around: the path it avoids
        is gone."""
        table = self._routes
        if table is None or table.config is not config or table.router is not router:
            table = self._routes = RouteTable(self.self_name, config, router)
        moved = table.review_heads(self.peers)
        for group, _head, _reason in moved:
            for name in table.groups[group]:
                self.peers[name].direct_until = 0
        return table.heads, table.behind, moved

    def acting_heads(self) -> dict[str, str]:
        """Proxy groups (by preferred head) currently fed through
        another member."""
        return dict(self._routes.acting) if self._routes is not None else {}


class Replicator:
    """The leader's send side, and the ack and reject half of
    AppendEntries responses. Rebuilt per incarnation; like
    :class:`~repro.raft.election.Election` it acts only through ``send``
    and ``now`` (it sets no timer), reads log, term and membership from
    the node, and counts into the node's ``metrics``.

    Each pass sends every peer its next window: one storage read (and
    one immutable entries tuple) per distinct send cursor, and one WAN
    message per remote region — whenever a region's head is sent
    entries, every member behind it that stands at the window's start
    rides on that message as a fan-out destination (§4.2). A member
    behind a head that did not ride gets a PROXY_OP through the head for
    what the head has been sent."""

    def __init__(self, node: Any, send: Callable, now: Callable) -> None:
        self.node = node
        self.send = send
        self.now = now
        self._config = node.config
        self._metrics = node.metrics

    def fresh_state(self, silent: frozenset) -> LeaderState:
        """Bookkeeping for a term this node just won."""
        node = self.node
        return LeaderState.fresh(
            node.current_term, node.name, node.membership, node.last_opid.index, silent
        )

    # -- sending -----------------------------------------------------------------

    def replicate_all(self, force: bool) -> None:
        """One replication round to every peer; ``force`` sends a
        heartbeat to peers with nothing new (unless it is redundant)."""
        node = self.node
        if node.leader_state is None:
            return
        self._metrics["replication_rounds"] += 1
        self.replicate([member.name for member in node.membership.peers_of(node.name)], force)

    def replicate(self, peers: list[str], force: bool) -> None:
        """Send each of ``peers`` its next window, if it is owed one."""
        node = self.node
        state = node.leader_state
        if state is None:
            return
        config, now = self._config, self.now()
        last, commit = node.last_opid.index, node.commit_index
        windows: dict[tuple[int, int], tuple[OpId, tuple]] = {}
        starts: dict[str, int] = {}
        for peer in peers:
            progress = state.ensure_peer(peer)
            answering = progress.answering
            start = progress.send_window_start(last, now, force)
            if answering and not progress.answering:
                node._trace("raft.peer_silent", peer=peer, reason="retry")
            if start is None:
                continue
            if (
                start > last
                and progress.answering
                and progress.heartbeat_redundant(now, config.heartbeat_interval, commit)
            ):
                self._metrics["heartbeats_suppressed"] += 1
                continue
            starts[peer] = start
        if not starts:
            return
        heads, behind, moved = state.routes(node.membership, node.router)
        for group, head, reason in moved:
            self._metrics["proxy_reroots"] += 1
            node._trace("raft.region_head", group=group, head=head, reason=reason)
        # Unrouted peers, probes and heartbeats (tiny anyway) first: what a
        # routed peer gets depends on what its head is sent, this pass
        # included.
        routed = []
        for peer, start in list(starts.items()):
            progress = state.peers[peer]
            if start <= last and peer in heads and progress.answering:
                routed.append(peer)
                continue
            window = self._window_at(peer, progress, start, windows)
            if window is None:
                continue
            riders = ()
            if window[1] and peer in behind:
                riders = self._take_riders(behind[peer], window, starts, now)
            self._send_window(peer, progress, window, now, riders)
        for peer in routed:
            if peer in starts:  # did not ride on its head's message
                self._send_routed(
                    peer, state.peers[peer], starts[peer], heads[peer], windows, now
                )

    def _take_riders(
        self, behind: list[str], window: "tuple[OpId, tuple]", starts: dict, now: float
    ) -> tuple:
        """The answering members behind a head that stand exactly at the
        start of the window it is being sent: the head's window is
        theirs, in no message of their own — whatever their own budget or
        in-flight cap (the one WAN stream is paced by the head's). Taken
        out of ``starts``."""
        peers = self.node.leader_state.peers
        prev_opid, entries = window
        riders = []
        for peer in behind:
            progress = peers.get(peer)
            if progress is None or progress.routed_around or not progress.answering:
                continue
            if progress.inflight and now - progress.inflight_since >= APPEND_RETRY_INTERVAL:
                # Rule 2's retry, for a member its rides keep fresh: its
                # windows went unacked, so it is probed, not carried.
                progress.on_retry_timeout()
                self.node._trace("raft.peer_silent", peer=peer, reason="retry")
                continue
            start = starts.get(peer)
            if start is None:
                start = max(progress.next_index, progress.last_sent_index + 1)
            if start == prev_opid.index + 1:
                starts.pop(peer, None)
                self._note_sent(progress, entries, now)
                riders.append(peer)
        return tuple(riders)

    def _window_at(
        self, peer: str, progress: PeerProgress, start: int, windows: dict
    ) -> "tuple[OpId, tuple] | None":
        """The ``(prev_opid, entries)`` window for ``peer`` from ``start``
        (empty entries: a heartbeat, or a probe for a peer that is not
        answering), or None when a snapshot went out instead."""
        # Adaptive flow control gives each peer its own entry budget, so
        # shared windows memoize on (start, budget) — peers with equal
        # cursors *and* budgets still share one storage read.
        node = self.node
        limit = progress.window_entries if progress.answering else 0
        key = (start, limit)
        window = windows.get(key)
        if window is not None:
            return window
        prev_index = start - 1
        last = node.last_opid
        # Pure heartbeats (start just past the tail) resolve the prev
        # term from the O(1) tail opid instead of a storage lookup.
        if prev_index == last.index and prev_index > 0:
            prev_term = last.term
        else:
            prev_term = node._term_at(prev_index)
        if prev_term is None or start < node.storage.first_index():
            # Peer is so far behind that our log was purged below its
            # next_index (LogTruncatedError territory): state transfer
            # is the only way to catch it up. Ship a snapshot when the
            # machinery is wired; otherwise resend from the oldest we
            # still have (pure-protocol rings never purge mid-stream).
            if node.snapshots.ship_to(peer):
                return None
            start = node.storage.first_index()
            prev_index = start - 1
            prev_term = node._term_at(prev_index) or 0
            key = (start, limit)
            window = windows.get(key)
            if window is not None:
                return window
        entries = tuple(self._entries_for_send(start, limit, MAX_BYTES_PER_APPEND))
        window = windows[key] = (OpId(prev_term, prev_index), entries)
        return window

    def _entries_for_send(self, start: int, max_entries: int, max_bytes: int) -> list[LogEntry]:
        """Contiguous entries from ``start`` bounded by count and bytes
        (≥1 entry if one exists, so a huge entry still replicates)."""
        read = self.node._entry_for_read
        entries: list[LogEntry] = []
        total = 0
        index = start
        while len(entries) < max_entries:
            try:
                entry = read(index)
            except LogTruncatedError:
                break
            if entry is None:
                break
            if entries and total + entry.size_bytes > max_bytes:
                break
            entries.append(entry)
            total += entry.size_bytes
            index += 1
        return entries

    def _note_sent(self, progress: PeerProgress, entries: tuple, now: float) -> None:
        """Leader bookkeeping for one window on its way to one peer —
        in a message of its own, as a PROXY_OP, or riding on its head's
        (``append_sizes`` counts windows per peer, however they travel)."""
        if entries:
            progress.last_sent_index = entries[-1].opid.index
            inflight = progress.inflight
            if not inflight:
                progress.inflight_since = now
            inflight.append(progress.last_sent_index)
            if len(inflight) > self._metrics["inflight_hwm"]:
                self._metrics["inflight_hwm"] = len(inflight)
            self.node.append_sizes.record(float(len(entries)))
        progress.last_sent_time = now
        progress.last_sent_commit = self.node.commit_index

    def _send_window(
        self, peer: str, progress: PeerProgress, window: tuple, now: float, fanout: tuple = ()
    ) -> None:
        node = self.node
        prev_opid, entries = window
        self._note_sent(progress, entries, now)
        if not progress.answering:
            self._metrics["probes_sent"] += 1
        self.send(
            peer,
            AppendEntriesRequest(
                term=node.current_term,
                leader=node.name,
                prev_opid=prev_opid,
                commit_opid=node.commit_opid,
                entries=entries,
                final_dest=peer,
                fanout=fanout,
            ),
        )

    def _send_routed(
        self, peer: str, progress: PeerProgress, start: int, head: str, windows: dict, now: float
    ) -> None:
        """Entries from ``start`` for an answering peer that sits behind
        a head and did not ride on the head's own append in this pass.
        They cross the WAN as payload only when the head cannot serve
        them: it is not answering, the peer is routed around, or the
        peer is ahead of everything the head has been sent."""
        node = self.node
        covered = 0
        # Only a head that answers carries other members' traffic (§4.2.3).
        proxy = node.leader_state.peers.get(head)
        if not progress.routed_around and proxy is not None and proxy.answering:
            covered = proxy.sent_horizon - (start - 1)
            if covered == 0 and proxy.inflight:
                # Level with its head, which owes us an ack before it can
                # take more: this peer rides on the head's next window.
                return
        window = self._window_at(peer, progress, start, windows)
        if window is None:
            return
        prev_opid, entries = window
        if covered <= 0 or prev_opid.index != start - 1:
            self._send_window(peer, progress, window, now)
            return
        # PROXY_OP (§4.2.1): metadata for what the head has been sent;
        # the head reconstitutes the payload from its own log.
        entries = entries[:covered]
        self._note_sent(progress, entries, now)
        self.send(
            head,
            AppendEntriesRequest(
                term=node.current_term,
                leader=node.name,
                prev_opid=prev_opid,
                commit_opid=node.commit_opid,
                proxy_opids=tuple(e.opid for e in entries),
                final_dest=peer,
            ),
        )

    # -- answers -------------------------------------------------------------------

    def on_response(self, response: AppendEntriesResponse) -> tuple:
        """An answer to this leader's term (the node checked both): move
        progress and the commit marker, and send more where unsent
        entries remain. Returns the peers it acked."""
        node = self.node
        state = node.leader_state
        if not response.success:
            progress = state.ensure_peer(response.follower)
            if not progress.answering:  # any response is an answer
                node._trace("raft.peer_answering", peer=response.follower)
            progress.on_rejected(response.last_opid.index)
            self.replicate([response.follower], force=True)
            return ()
        # One folded response acks the head and every rider it names, at
        # the same last_opid.
        acked = (response.follower, *response.riders) if response.riders else (response.follower,)
        policy, membership = node._effective_policy(), node.membership
        index, now = response.last_opid.index, self.now()
        advance = False
        progresses = []
        for follower in acked:
            progress = state.ensure_peer(follower)
            progresses.append(progress)
            if not progress.answering:  # any response is an answer
                node._trace("raft.peer_answering", peer=follower)
            progress.acked(index)
            progress.inflight_since = now
            if follower == response.follower and response.degraded_through:
                # Its head could not reconstitute the window (§4.2.3).
                progress.route_around(response.degraded_through)
            if state.counts_toward_commit(follower, policy, membership):
                advance = True
        if advance:
            node._maybe_advance_commit()
        # Send more only if unsent entries remain, in one pass; force=False
        # avoids answering every ack with an empty heartbeat (which would
        # ping-pong forever).
        last = node.last_opid.index
        behind = [
            follower for follower, progress in zip(acked, progresses)
            if progress.next_index <= last
        ]
        if behind:
            self.replicate(behind, force=False)
        return acked

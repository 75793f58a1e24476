"""Leader-side replication bookkeeping.

Per-peer progress (next/match indexes, ack freshness) plus the
commit-marker advance: after every ack the leader asks the quorum policy
which indexes are now consensus-committed. Proxying (§4.2.1) keeps *all*
of this on the leader — proxies carry no bookkeeping — which is what
keeps the design "effectively standard Raft from a safety perspective".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.raft.membership import MembershipConfig
from repro.raft.proxy import ProxyRouter, RouteTable
from repro.raft.quorum import QuorumPolicy, majority_count
from repro.raft.types import OpId


@dataclass(frozen=True)
class FlowControl:
    """Per-peer pipelining limits.

    ``max_inflight_windows`` bounds how many entry-bearing AppendEntries
    may be outstanding (sent, unacked) toward one peer; the adaptive
    window starts at ``window_min`` entries per append, doubles on every
    cleanly acked window up to ``window_max``, and collapses back to
    ``window_min`` on a rejection or retry timeout."""

    max_inflight_windows: int
    window_min: int
    window_max: int


@dataclass
class PeerProgress:
    """What the leader believes about one peer."""

    next_index: int
    # Pipelining limits: unacked-window cap and the adaptive window's range.
    flow: FlowControl
    match_index: int = 0
    # Has this peer acked an append to *this* leader? Until it has, it is
    # neither a hand-off target nor a proxy: a crashed member never does.
    acked_in_term: bool = False
    last_ack_time: float = 0.0
    # Route-around (§4.2.3), per destination: windows go direct, not
    # through this peer's proxy, until its match index reaches this — as
    # far as the proxy said its log cannot serve (a degrade), or as far
    # as what was sent went silent (a retry).
    direct_until: int = 0
    last_sent_index: int = 0
    last_sent_time: float = -1e9
    # Commit marker carried by the newest message sent to this peer; a
    # forced heartbeat is redundant only if the peer already saw the
    # current one (heartbeat suppression).
    last_sent_commit: int = -1
    # Adaptive per-append entry cap (0 = start at flow.window_min).
    window_entries: int = 0
    # Tail indexes of entry-bearing appends sent but not yet acked.
    inflight: list = field(default_factory=list)
    inflight_hwm: int = 0
    suppressed_heartbeats: int = 0

    def __post_init__(self) -> None:
        if self.window_entries == 0:
            self.window_entries = self.flow.window_min

    @property
    def routed_around(self) -> bool:
        return self.direct_until > self.match_index

    @property
    def sent_horizon(self) -> int:
        """Newest index this peer holds or has been sent: what a member
        behind it, were it a proxy, may be served from its log."""
        return max(self.match_index, self.last_sent_index)

    def acked(self, index: int, now: float) -> None:
        self.acked_in_term = True
        self.match_index = max(self.match_index, index)
        self.next_index = max(self.next_index, self.match_index + 1)
        self.last_ack_time = now
        if self.inflight:
            remaining = [tail for tail in self.inflight if tail > index]
            cleanly_acked = len(self.inflight) - len(remaining)
            self.inflight = remaining
            # Slow-start growth: each cleanly acked window doubles the
            # next window, up to the configured ceiling.
            for _ in range(cleanly_acked):
                self.window_entries = min(self.flow.window_max, self.window_entries * 2)

    def note_sent_window(self, tail_index: int) -> None:
        """Record one entry-bearing append as in flight (flow control)."""
        self.inflight.append(tail_index)
        self.inflight_hwm = max(self.inflight_hwm, len(self.inflight))

    def route_around(self, until: int) -> None:
        """The proxy degraded this peer's window to a heartbeat: nothing
        past ``match_index`` arrived, so rewind the send cursor and go
        direct through ``until``. The link itself is fine — the adaptive
        window keeps its size."""
        self.direct_until = max(self.direct_until, until)
        self.inflight.clear()
        self.last_sent_index = self.match_index
        self.last_sent_time = -1e9

    def on_rejected(self) -> None:
        """AppendEntries rejected: whatever was in flight toward this
        peer is junk (wrong prev), and the link/log state is suspect —
        collapse the window back to slow-start."""
        self._collapse()

    def on_retry_timeout(self) -> None:
        """An unacked window went silent past the retry interval."""
        self._collapse()

    def _collapse(self) -> None:
        self.inflight.clear()
        self.window_entries = self.flow.window_min

    def send_window_start(
        self,
        last_log_index: int,
        retry_interval: float,
        now: float,
        force: bool,
        heartbeat_suppress_window: float = 0.0,
        commit_index: int = 0,
    ) -> int | None:
        """Where an AppendEntries to this peer should start, or None for
        nothing to send. ``last_log_index + 1`` means a pure heartbeat
        (carrying only the commit marker). The leader groups peers by
        this cursor so one storage read serves every peer at the same
        start (shared fan-out reads).

        Pipelining new tail stops while
        ``max_inflight_windows`` appends are outstanding; the retry path
        (no ack for ``retry_interval``) always goes through, collapsing
        the adaptive window first. ``heartbeat_suppress_window`` > 0
        suppresses a *forced* pure heartbeat when traffic already went
        out within that window AND that traffic carried the current
        commit marker — then the heartbeat is pure duplication: the
        follower's failure detector was fed and its commit point cannot
        advance further."""
        heartbeat_redundant = (
            heartbeat_suppress_window > 0.0
            and now - self.last_sent_time < heartbeat_suppress_window
            and self.last_sent_commit >= commit_index
        )
        if self.next_index > last_log_index:
            if not force:
                return None
            if heartbeat_redundant:
                self.suppressed_heartbeats += 1
                return None
            return last_log_index + 1  # pure heartbeat
        if now - self.last_sent_time >= retry_interval:
            if self.inflight:
                self.on_retry_timeout()
            # Whatever path the silent windows took, the resend skips it.
            self.direct_until = max(self.direct_until, self.last_sent_index)
            return self.next_index  # (re)send from what's unacked
        if self.last_sent_index < last_log_index:
            if len(self.inflight) >= self.flow.max_inflight_windows:
                return None  # at the in-flight cap: wait for acks
            return max(self.next_index, self.last_sent_index + 1)  # pipeline new tail
        if force:
            if heartbeat_redundant:
                self.suppressed_heartbeats += 1
                return None
            return last_log_index + 1  # heartbeat carrying the commit marker
        return None


@dataclass
class LeaderState:
    """All volatile leader bookkeeping; created on election, discarded on
    step-down."""

    term: int
    self_name: str
    last_log_index: int
    # Flow-control limits applied to every tracked peer.
    flow: FlowControl
    peers: dict[str, PeerProgress] = field(default_factory=dict)
    # Witness leaders only (§4.1): hand-off targets already attempted in
    # this term. None = no hand-off owed (a database leads, or the
    # TimeoutNow has gone out).
    handoff_tried: set | None = None
    # The region tree (§4.2) as this leader routes it: a member carries
    # other members' traffic only while it has acked within this long.
    proxy_health_timeout: float = float("inf")
    # Told ``(group, head, reason)`` whenever a proxy group's head moves.
    on_region_head: Callable[[str, str, str], None] | None = None
    _routes: RouteTable | None = None
    _commit_voters: tuple | None = None

    @classmethod
    def fresh(
        cls,
        term: int,
        self_name: str,
        config: MembershipConfig,
        last_log_index: int,
        flow: FlowControl,
        proxy_health_timeout: float = float("inf"),
        on_region_head: Callable[[str, str, str], None] | None = None,
    ) -> "LeaderState":
        state = cls(
            term=term,
            self_name=self_name,
            last_log_index=last_log_index,
            flow=flow,
            proxy_health_timeout=proxy_health_timeout,
            on_region_head=on_region_head,
        )
        for member in config.peers_of(self_name):
            state.ensure_peer(member.name)
        return state

    def ensure_peer(self, name: str) -> PeerProgress:
        """Track a peer added by a mid-term membership change."""
        progress = self.peers.get(name)
        if progress is None:
            progress = self.peers[name] = PeerProgress(
                next_index=self.last_log_index + 1, flow=self.flow
            )
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

    def proxy_is_healthy(self, name: str, now: float) -> bool:
        """Route-around check (§4.2.3): only a member that has acked this
        leader, and recently, carries other members' traffic — a crashed
        one never qualifies, whenever the term began."""
        progress = self.peers.get(name)
        return (
            progress is not None
            and progress.acked_in_term
            and now - progress.last_ack_time <= self.proxy_health_timeout
        )

    def routes(self, config: MembershipConfig, router: ProxyRouter, now: float) -> tuple[dict, dict]:
        """``(chain by destination, destinations behind each one-hop
        proxy)`` for this pass, every proxy group rooted at the head the
        rule picks from the progress above (:class:`RouteTable`). Routers
        are pure, so the static table lives as long as the membership."""
        table = self._routes
        if table is None or table.config is not config or table.router is not router:
            table = self._routes = RouteTable(self.self_name, config, router)
        for change in table.review_heads(self.peers, lambda name: self.proxy_is_healthy(name, now)):
            if self.on_region_head is not None:
                self.on_region_head(*change)
        return table.chains, table.behind

    def acting_heads(self) -> dict[str, str]:
        """Proxy groups (by preferred head) currently fed through
        another member."""
        return dict(self._routes.acting) if self._routes is not None else {}

    def region_watermark(self, region: str, config: MembershipConfig) -> int:
        """Highest index held by a majority of the region's voters —
        the per-region watermark used for commit decisions and purge
        heuristics (§4.1, §A.1)."""
        region_voters = config.voters_in_region(region)
        if not region_voters:
            return self.last_log_index  # vacuous: nothing to wait for
        matches = sorted((self.match_of(m.name) for m in region_voters), reverse=True)
        return matches[majority_count(len(matches)) - 1]

    def min_region_watermark(self, config: MembershipConfig) -> int:
        """The slowest region's watermark: safe global purge horizon."""
        return min(self.region_watermark(region, config) for region in config.regions())


@dataclass
class VoteTally:
    """Vote bookkeeping for one election round (real, pre, or mock)."""

    term: int
    granted: set = field(default_factory=set)
    denied: set = field(default_factory=set)
    # Best leader knowledge gathered from responses (FlexiRaft history).
    best_leader_term: int = 0
    best_leader_region: str | None = None
    # Vote-history knowledge from responses: term -> regions of candidates
    # some voter granted a real vote to at that term. Different voters may
    # back different candidates in one term, hence a set per term.
    history: dict = field(default_factory=dict)
    # The last-known leader a real election runs against: until it
    # answers, its vote is not one the candidate can hope for.
    presumed_dead: str | None = None

    def attainable(self, voters) -> frozenset:
        """The most grants this round can still end with: every grant so
        far plus every voter that has not denied — except the leader
        whose silence caused the election, while it stays silent."""
        silent = {self.presumed_dead} - self.granted
        return frozenset(voters) - self.denied - silent

    def record(self, voter: str, was_granted: bool) -> None:
        if was_granted:
            self.granted.add(voter)
            self.denied.discard(voter)
        elif voter not in self.granted:
            self.denied.add(voter)

    def learn_leader(self, term: int, region: str | None) -> None:
        if region is not None and term > self.best_leader_term:
            self.best_leader_term = term
            self.best_leader_region = region

    def learn_history(self, pairs) -> None:
        for term, region in pairs:
            self.history.setdefault(term, set()).add(region)

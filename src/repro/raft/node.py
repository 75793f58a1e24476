"""The Raft node: elections, replication, membership, transfer, proxying.

One :class:`RaftNode` runs as (part of) a host's service. It is fully
event-driven — message handlers plus host timers — and keeps the paper's
separation: durable state (term, vote, last-leader knowledge) lives on
the host's disk; the log lives behind the :class:`LogStorage`
abstraction; everything else dies with the process.

MyRaft-specific behaviours implemented here:

- pluggable :class:`QuorumPolicy` (vanilla majority or FlexiRaft, §4.1);
- witnesses (logtailers) can win elections — longest log wins — and then
  hand leadership to a caught-up storage-engine member (§2.2, §4.1);
- AppendEntries proxying: one WAN message per region (fan-out riders on
  the proxy's own append), PROXY_OP reconstitution for stragglers,
  degrade-to-heartbeat, and per-destination route-around (§4.2);
- mock elections before TransferLeadership (§4.3);
- Quorum Fixer override hooks (§5.3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.errors import (
    LogTruncatedError,
    MembershipError,
    NotLeaderError,
    RaftError,
)
from repro.metrics.histogram import LatencyHistogram
from repro.raft.batching import ProposalAccumulator
from repro.raft.config import RaftConfig
from repro.raft.hooks import PayloadFactory, RaftHooks, TimingModel
from repro.raft.log_cache import LogCache
from repro.raft.log_storage import (
    ENTRY_KIND_CONFIG,
    ENTRY_KIND_DATA,
    ENTRY_KIND_NOOP,
    LogEntry,
    LogStorage,
)
from repro.raft.membership import MembershipConfig
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    InstallSnapshotChunk,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    MockElectionRequest,
    MockElectionResult,
    ReadIndexRequest,
    ReadIndexResponse,
    ReadProbeRequest,
    ReadProbeResponse,
    RequestVoteRequest,
    RequestVoteResponse,
    TimeoutNowRequest,
    VoteRetraction,
)
from repro.raft.proxy import RegionProxyRouter
from repro.raft.quorum import ElectionContext, QuorumPolicy
from repro.raft.replication import FlowControl, LeaderState, VoteTally
from repro.raft.types import MemberInfo, OpId, RaftRole
from repro.reads import LeaderLease, ReadManager
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.rng import RngStream

_DURABLE_NS = "raft"
_ELECTION_COUNTERS = (
    "elections_started", "elections_won", "pre_votes_started",
    "pre_votes_abandoned", "elections_abandoned", "handoff_attempts",
)


class RaftNode:
    """A member of one Raft ring."""

    def __init__(
        self,
        host: Host,
        config: RaftConfig,
        storage: LogStorage,
        policy: QuorumPolicy,
        membership: MembershipConfig,
        hooks: RaftHooks | None = None,
        timing: TimingModel | None = None,
        rng: RngStream | None = None,
        router: "Any | None" = None,
        ring_id: str = "rs0",
    ) -> None:
        config.validate()
        self.host = host
        self.name = host.name
        self.ring_id = ring_id
        self.config = config
        self.storage = storage
        self.policy = policy
        self.hooks = hooks or RaftHooks()
        self.timing = timing or TimingModel()
        self.rng = (rng or RngStream(1)).child(f"raft/{self.name}")
        # The region tree (§4.2) unless the embedder injects another shape;
        # a router that returns no chains spells direct delivery.
        self.router = router if router is not None else RegionProxyRouter()
        self.tracer = host.tracer

        durable = host.disk.namespace(_DURABLE_NS)
        durable.setdefault("current_term", 0)
        durable.setdefault("voted_for", (0, None))  # (term, candidate)
        durable.setdefault("last_leader", (0, None, None))  # (term, name, region)
        # (term, region) pairs: real votes granted at terms newer than the
        # last known leader (§4.1 voting history). Durable for the same
        # reason voted_for is — a restarted voter must still remember whom
        # it may have helped elect. Pruned as leader knowledge advances.
        durable.setdefault("vote_history", ())
        durable.setdefault("bootstrap_members", membership.to_wire())
        durable.setdefault("bootstrap_config_index", 0)
        self._durable = durable
        # Invariant: current term is never behind the log's last term. This
        # matters when adopting a pre-existing log (enable-raft converts
        # semi-sync binlogs whose entries carry generation stamps).
        last_log_term = storage.last_opid().term
        if durable["current_term"] < last_log_term:
            durable["current_term"] = last_log_term

        # Snapshot machinery (attached by repro.snapshot.SnapshotManager;
        # None for pure-protocol rings without state transfer).
        self.snapshots: Any | None = None

        # Safety monitor (attached by repro.check.InvariantSuite; None in
        # ordinary runs). Observes elections, commit advances, and
        # snapshot adoptions; never changes behaviour.
        self.monitor: Any | None = None

        # State-machine apply watermark (attached by the embedding plugin:
        # the engine's last committed index). Lets stats() report replica
        # apply lag — commit_index minus what the applier has committed.
        self.applied_index_fn: "Callable[[], int] | None" = None

        # Volatile — rebuilt by _init_volatile on every (re)start.
        self._init_volatile()

        # Counters for experiments and assertions.
        self.metrics: dict[str, int] = {
            "elections_started": 0,
            "elections_won": 0,
            "pre_votes_started": 0,
            "pre_votes_abandoned": 0,
            "elections_abandoned": 0,
            "mock_elections": 0,
            "proxy_forwards": 0,
            "proxy_degrades": 0,
            "proxy_reroots": 0,
            "transfers_initiated": 0,
            "handoff_attempts": 0,
            "snapshots_shipped": 0,
            "snapshot_installs": 0,
            "replication_rounds": 0,
            "read_probe_rounds": 0,
            "read_rounds_confirmed": 0,
            "read_index_forwards": 0,
            "read_index_fetches": 0,
            "lease_reads": 0,
            "proposals": 0,
            "proposal_batches": 0,
            "inflight_hwm": 0,
        }
        # Entry count of every entry-bearing AppendEntries sent while
        # leader (write-path observability; heartbeats excluded).
        self.append_sizes = LatencyHistogram("entries_per_append")

    # ------------------------------------------------------------------ state

    def _init_volatile(self) -> None:
        self.membership = self._rebuild_membership()
        self_member = self.membership.member(self.name)
        self._is_voter = self_member.is_voter if self_member else False
        self.role = RaftRole.FOLLOWER if self._is_voter else RaftRole.LEARNER
        self.leader_id: str | None = None
        self.commit_index = 0
        self._commit_opid_memo = OpId.zero()
        self.leader_state: LeaderState | None = None
        self.cache = LogCache(self.config.log_cache_max_bytes)
        self._election_timer = None
        self._election_deadline = 0.0
        self._vote_tally: VoteTally | None = None
        self._pre_vote_tally: VoteTally | None = None
        self._mock_tally: VoteTally | None = None
        self._mock_reply_to: str | None = None
        self._pending_proposals: dict[int, SimFuture] = {}
        # Group-commit accumulator (§3.4 write-path batching).
        self._accumulator = ProposalAccumulator(self)
        self._pending_transfer: SimFuture | None = None
        self._transfer_target: str | None = None
        self._mock_completed_for_transfer = False
        self._pending_proxy: list[AppendEntriesRequest] = []
        self._last_leader_contact = self.host.loop.now
        self._quorum_override: QuorumPolicy | None = None
        # Consistent-read machinery (repro.reads). All volatile: a crash
        # wipes the lease and every pending barrier, so a restarted
        # leader re-earns quorum confirmation before serving.
        self.reads = ReadManager(self)
        self.lease: LeaderLease | None = None
        self._lease_holdoff_hint = 0.0
        self._read_fetch_waiters: list[SimFuture] = []
        self._read_fetch_queue: list[SimFuture] = []  # for the next fetch
        self._read_fetch_inflight = False
        self._read_fetch_id = 0
        if self._is_voter:
            self._reset_election_timer()

    def _rebuild_membership(self) -> MembershipConfig:
        """Latest config entry in the log wins; else the bootstrap list.
        Per Raft, a config is adopted as soon as it is written (§2.2)."""
        index = self.storage.last_opid().index
        first = self.storage.first_index()
        while index >= first:
            entry = self.storage.entry(index)
            if entry is not None and entry.kind == ENTRY_KIND_CONFIG:
                return MembershipConfig.from_wire(entry.metadata, entry.opid.index)
            index -= 1
        return MembershipConfig.from_wire(
            self._durable["bootstrap_members"],
            self._durable.get("bootstrap_config_index", 0),
        )

    # -- durable accessors ----------------------------------------------------

    @property
    def current_term(self) -> int:
        return self._durable["current_term"]

    def _set_term(self, term: int) -> None:
        if term < self.current_term:
            raise RaftError(f"term regression {self.current_term} -> {term}")
        if term > self.current_term:
            self._abandon_pre_vote("term-changed")
        self._durable["current_term"] = term

    def _voted_for(self, term: int) -> str | None:
        voted_term, candidate = self._durable["voted_for"]
        return candidate if voted_term == term else None

    def _record_vote(self, term: int, candidate: str) -> None:
        self._durable["voted_for"] = (term, candidate)
        member = self.membership.member(candidate)
        # An unmappable candidate region is kept as "?" — the quorum
        # policy treats it as "winner's data quorum unknowable" and goes
        # pessimistic rather than silently ignoring it.
        region = member.region if member is not None else "?"
        history = dict(self._durable["vote_history"])
        history[term] = region
        self._durable["vote_history"] = tuple(sorted(history.items()))

    @property
    def vote_history(self) -> tuple:
        return self._durable["vote_history"]

    @property
    def last_known_leader_region(self) -> str | None:
        return self._durable["last_leader"][2]

    @property
    def last_known_leader_term(self) -> int:
        return self._durable["last_leader"][0]

    def _learn_leader(self, term: int, name: str) -> None:
        if term >= self._durable["last_leader"][0]:
            member = self.membership.member(name)
            region = member.region if member else None
            self._durable["last_leader"] = (term, name, region)
            # Elected leaders subsume older vote history: a term-T winner's
            # log already covers anything committed at terms <= T, and
            # future elections intersect *its* region to inherit that.
            retained = tuple(
                (t, r) for t, r in self._durable["vote_history"] if t > term
            )
            if retained != self._durable["vote_history"]:
                self._durable["vote_history"] = retained

    # -- derived ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.role == RaftRole.LEADER

    @property
    def last_opid(self) -> OpId:
        # Staged-but-unflushed proposals extend the logical tail so
        # consecutive same-tick proposals number contiguously; flush
        # barriers guarantee no RPC handler ever observes the gap.
        staged = self._accumulator.last_staged_opid
        return staged if staged is not None else self.storage.last_opid()

    @property
    def commit_opid(self) -> OpId:
        if self.commit_index == 0:
            return OpId.zero()
        # A committed entry's term is immutable, so the lookup is memoized
        # until the commit point moves — this property is on the
        # per-AppendEntries hot path.
        if self._commit_opid_memo.index != self.commit_index:
            term = self._term_at(self.commit_index)
            self._commit_opid_memo = OpId(
                term if term is not None else 0, self.commit_index
            )
        return self._commit_opid_memo

    def _term_at(self, index: int) -> int | None:
        staged_term = self._accumulator.staged_term_at(index)
        if staged_term is not None:
            return staged_term
        try:
            return self.storage.term_at(index)
        except LogTruncatedError:
            return None

    def _effective_policy(self) -> QuorumPolicy:
        return self._quorum_override or self.policy

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(kind, node=self.name, term=self.current_term, **fields)

    def stats(self) -> dict[str, Any]:
        """Perf-observability counters (benches and shadow checks assert
        on these instead of guessing): log shape from the storage layer
        plus the log cache's hit/miss/fill/eviction counters and current
        byte size, fan-out round count, and the replica apply watermark
        (apply lag = committed-but-not-yet-engine-applied entries)."""
        applied = self.applied_index_fn() if self.applied_index_fn is not None else None
        return {
            "ring_id": self.ring_id,
            "log": self.storage.stats(),
            "cache": self.cache.stats(),
            "replication_rounds": self.metrics["replication_rounds"],
            "commit_index": self.commit_index,
            "applied_index": applied,
            "apply_lag": max(0, self.commit_index - applied) if applied is not None else None,
            "write_path": self._write_path_stats(),
            "elections": {key: self.metrics[key] for key in _ELECTION_COUNTERS},
            # The region tree (§4.2): what this node relayed as a proxy
            # and, when it leads, the groups it feeds through an acting head.
            "proxy": {
                "forwards": self.metrics["proxy_forwards"],
                "degrades": self.metrics["proxy_degrades"],
                "reroots": self.metrics["proxy_reroots"],
                "acting_heads": (
                    self.leader_state.acting_heads() if self.leader_state is not None else {}
                ),
            },
            "snapshot": self.snapshots.stats() if self.snapshots is not None else {},
        }

    def _write_path_stats(self) -> dict[str, Any]:
        """Write-path observability: batching ratio, append-window shape,
        pipelining depth and heartbeat suppression."""
        sizes = self.append_sizes
        if sizes.count:
            entries_per_append = {
                "count": sizes.count,
                "mean": sizes.mean(),
                "p50": sizes.percentile(50),
                "p99": sizes.percentile(99),
                "max": sizes.max(),
            }
        else:
            entries_per_append = {"count": 0}
        peers = self.leader_state.peers.values() if self.leader_state is not None else ()
        return {
            "proposals": self.metrics["proposals"],
            "proposal_batches": self.metrics["proposal_batches"],
            "entries_per_append": entries_per_append,
            "inflight_hwm": self.metrics["inflight_hwm"],
            "heartbeats_suppressed": sum(p.suppressed_heartbeats for p in peers),
        }

    def status(self) -> dict[str, Any]:
        """Operator-visible summary (control-plane tooling reads this)."""
        return {
            "name": self.name,
            "role": self.role.value,
            "term": self.current_term,
            "leader": self.leader_id,
            "last_opid": self.last_opid,
            "commit_index": self.commit_index,
            "members": self.membership.names(),
            "quorum": self._effective_policy().describe(),
        }

    # ------------------------------------------------------- crash / restart

    def on_crash(self) -> None:
        # Staged proposals were never durable; their futures fail with
        # everything else pending.
        self._accumulator.discard()
        for future in self._pending_proposals.values():
            future.fail_if_pending(RaftError(f"{self.name} crashed"))
        self._pending_proposals.clear()
        if self._pending_transfer is not None:
            self._pending_transfer.fail_if_pending(RaftError(f"{self.name} crashed"))
        crash_error = RaftError(f"{self.name} crashed")
        self.reads.fail_all(crash_error)
        self._fail_read_fetches(crash_error)

    def on_restart(self) -> None:
        self._init_volatile()
        self._trace("raft.restarted")

    # --------------------------------------------------------------- timers

    def _election_timeout(self) -> float:
        return self.config.election_timeout_base() + self.rng.uniform(
            0.0, self.config.election_timeout_jitter
        )

    def _reset_election_timer(self, detect: bool = True) -> None:
        """Push the election deadline out. The armed timer is *lazy*: it
        re-checks the deadline when it fires instead of being cancelled
        and re-armed on every heartbeat (heap-churn optimization).

        ``detect=False`` follows an abandoned election, which is not
        leader contact: the leader's silence has been measured already, so
        only the jitter is waited."""
        if not self._is_voter:
            return
        jitter = self.config.election_timeout_jitter
        wait = self._election_timeout() if detect else self.rng.uniform(0.0, jitter)
        self._election_deadline = self.host.loop.now + wait
        if not detect and self._election_timer is not None:
            self._election_timer.cancel()  # armed for a later deadline
            self._election_timer = None
        if self._election_timer is None:
            self._arm_election_timer()

    def _arm_election_timer(self) -> None:
        delay = max(0.0, self._election_deadline - self.host.loop.now)
        self._election_timer = self.host.call_after(delay, self._on_election_timeout)

    def expire_election_timer(self) -> None:
        """The ``spurious_timeout`` fault: the failure detector misfires."""
        if self._election_timer is not None:
            self._election_timer.cancel()
        self._election_deadline = self.host.loop.now
        self._on_election_timeout()

    def _on_election_timeout(self) -> None:
        self._election_timer = None
        if self.role == RaftRole.LEADER or not self._is_voter:
            return
        if self.host.loop.now < self._election_deadline - 1e-12:
            self._arm_election_timer()  # contact arrived since; wait more
            return
        self._trace("raft.election_timeout")
        self._start_pre_vote()
        self._election_deadline = self.host.loop.now + self._election_timeout()
        self._arm_election_timer()

    # ------------------------------------------------------------ elections

    def _start_pre_vote(self) -> None:
        self.metrics["pre_votes_started"] += 1
        self._pre_vote_tally = VoteTally(term=self.current_term + 1)
        self._pre_vote_tally.record(self.name, True)
        self._pre_vote_tally.learn_leader(
            self.last_known_leader_term, self.last_known_leader_region
        )
        request = RequestVoteRequest(
            term=self.current_term + 1,
            candidate=self.name,
            last_opid=self.last_opid,
            is_pre_vote=True,
        )
        self._trace("raft.pre_vote_started")
        self._broadcast_to_voters(request)
        self._check_pre_vote_quorum()

    def start_election(self, is_transfer: bool = False) -> None:
        """Become candidate and solicit real votes.

        ``is_transfer`` marks elections triggered by TimeoutNow: voters
        skip leader-stickiness checks for them.
        """
        if not self._is_voter:
            return
        self.metrics["elections_started"] += 1
        self._become_follower_bookkeeping_only()
        self.role = RaftRole.CANDIDATE
        self._set_term(self.current_term + 1)
        self._record_vote(self.current_term, self.name)
        # A transfer's old leader is alive and about to grant; any other
        # election runs against a last-known leader presumed dead.
        against = None if is_transfer else self._durable["last_leader"][1]
        self._vote_tally = VoteTally(term=self.current_term, presumed_dead=against)
        self._vote_tally.record(self.name, True)
        self._vote_tally.learn_leader(
            self.last_known_leader_term, self.last_known_leader_region
        )
        self._trace("raft.election_started", transfer=is_transfer)
        request = RequestVoteRequest(
            term=self.current_term,
            candidate=self.name,
            last_opid=self.last_opid,
            is_leadership_transfer=is_transfer,
        )
        self._broadcast_to_voters(request)
        self._check_vote_quorum()
        # Retry with a fresh election if this one stalls.
        self.host.call_after(self.config.vote_timeout, self._on_vote_timeout, self.current_term)

    def _on_vote_timeout(self, term: int) -> None:
        if self.role == RaftRole.CANDIDATE and self.current_term == term:
            self._abandon_election("vote-timeout")  # voters never answered

    def _abandon_election(self, reason: str) -> None:
        """Revert to follower rather than hammering ever-higher terms; the
        next attempt goes through pre-vote again, so a candidate the ring
        keeps refusing (stickiness, short log) stops inflating terms."""
        self.role = RaftRole.FOLLOWER
        self._retract_candidacy(reason)
        self._reset_election_timer(detect=False)

    def _retract_candidacy(self, reason: str) -> None:
        """Tell grantors to drop this abandoned candidacy from their
        voting histories. Discarding the tally makes winning ``term``
        impossible, so the retraction is safe; it restores liveness that
        durable histories would otherwise hold hostage to this node's
        region. Best-effort — an undelivered retraction just leaves the
        pessimistic (safe) requirement in place."""
        tally, self._vote_tally = self._vote_tally, None
        if tally is None:
            return
        self.metrics["elections_abandoned"] += 1
        self._trace("raft.election_abandoned", reason=reason)
        retraction = VoteRetraction(term=tally.term, candidate=self.name)
        for voter in tally.granted:
            if voter != self.name:
                self.host.send(voter, retraction)
        # Our own self-vote is retracted locally the same way.
        self._drop_vote_history(tally.term, self.name)

    def _drop_vote_history(self, term: int, candidate: str) -> bool:
        if self._voted_for(term) != candidate:
            return False
        retained = tuple(
            (t, r) for t, r in self._durable["vote_history"] if t != term
        )
        if retained != self._durable["vote_history"]:
            self._durable["vote_history"] = retained
        return True

    def _handle_vote_retraction(self, src: str, msg: VoteRetraction) -> None:
        dropped = self._drop_vote_history(msg.term, msg.candidate)
        if dropped and msg.term == self.current_term and self.leader_id is None:
            # The grant restarted the detector for a leader that never was.
            self._reset_election_timer(detect=False)

    def _broadcast_to_voters(self, message: Any) -> None:
        for member in self.membership.voters():
            if member.name != self.name:
                self.host.send(member.name, message)

    def _election_context(self, tally: VoteTally) -> ElectionContext:
        best_term = tally.best_leader_term
        best_region = tally.best_leader_region
        if best_term < self.last_known_leader_term:
            best_term = self.last_known_leader_term
            best_region = self.last_known_leader_region
        # Regions that may hide an unheard-of winner: every real vote —
        # ours or one reported by a responder — granted at a term newer
        # than the best leader anyone in the tally knows about.
        possible = set()
        for term, region in self.vote_history:
            if term > best_term:
                possible.add(region)
        # A vote reported at the tally's own term was cast for a rival, so
        # only a denial can carry it, and this candidate may win before any
        # denial arrives: safety cannot rest on it (DESIGN.md §9).
        for term, regions in tally.history.items():
            if best_term < term != tally.term:
                possible.update(regions)
        return ElectionContext(
            candidate=self.name,
            last_leader_region=best_region,
            possible_leader_regions=frozenset(possible),
        )

    def _would_elect(self, tally: VoteTally, votes) -> bool:
        return self._effective_policy().election_quorum_satisfied(
            frozenset(votes), self.membership, self._election_context(tally)
        )

    def _abandon_pre_vote(self, reason: str) -> None:
        """A pre-vote asks "would you elect me, given that nobody leads?".
        Once this node votes for someone else, moves to another term or
        hears a leader, the question is void: completing it would start
        an election against what this node already knows."""
        if self._pre_vote_tally is not None:
            self._pre_vote_tally = None
            self.metrics["pre_votes_abandoned"] += 1
            self._trace("raft.pre_vote_abandoned", reason=reason)

    def _check_pre_vote_quorum(self) -> None:
        tally = self._pre_vote_tally
        if tally is None or tally.term != self.current_term + 1:
            return
        if self._would_elect(tally, tally.granted):
            self._pre_vote_tally = None
            self._trace("raft.pre_vote_won")
            self.start_election()

    def _check_vote_quorum(self) -> None:
        tally = self._vote_tally
        if tally is None or self.role != RaftRole.CANDIDATE:
            return
        if tally.term != self.current_term:
            return
        if self._would_elect(tally, tally.granted):
            self._become_leader()

    # -- voting (the voter side) -------------------------------------------------

    def _handle_request_vote(self, src: str, req: RequestVoteRequest) -> None:
        if req.is_mock:
            self._handle_mock_vote(src, req)
            return
        granted, reason = self._evaluate_vote(req)
        if granted and not req.is_pre_vote:
            # A granted real vote is remembered durably (voting history):
            # this candidate might win without this voter ever hearing the
            # outcome, so until newer leader knowledge arrives, every
            # later election this voter participates in must intersect
            # the candidate's region. Grants are deliberately NOT treated
            # as leader knowledge itself — a failed candidacy must not
            # displace the real last-known leader.
            self._record_vote(req.term, req.candidate)
            self._abandon_pre_vote("vote-granted")
            self._last_leader_contact = self.host.loop.now
            self._reset_election_timer()
        self._trace(
            "raft.vote",
            candidate=req.candidate,
            granted=granted,
            pre=req.is_pre_vote,
            reason=reason,
        )
        self.host.send(
            src,
            RequestVoteResponse(
                term=self.current_term,
                voter=self.name,
                granted=granted,
                is_pre_vote=req.is_pre_vote,
                reason=reason,
                last_leader_term=self.last_known_leader_term,
                last_leader_region=self.last_known_leader_region,
                vote_history=self.vote_history,
            ),
        )

    def _evaluate_vote(self, req: RequestVoteRequest) -> tuple[bool, str]:
        if req.term < self.current_term:
            return False, "stale term"
        # Leader stickiness (dissertation §9.6 / kuduraft vote-withholding):
        # while we believe a leader is alive, refuse to destabilize it —
        # *without* adopting the candidate's term — unless this is a
        # sanctioned TransferLeadership election.
        # A leader is its own leader contact: it does not vote itself out.
        heard_recently = self.is_leader or (
            self.host.loop.now - self._last_leader_contact
            < self.config.election_timeout_base()
        )
        believes_in_other_leader = self.is_leader or (
            self.leader_id is not None and self.leader_id != req.candidate
        )
        if heard_recently and believes_in_other_leader and not req.is_leadership_transfer:
            return False, "leader alive"
        if not req.is_pre_vote and req.term > self.current_term:
            self._step_down(req.term, leader=None)
        if not req.is_pre_vote:
            already = self._voted_for(req.term)
            if already is not None and already != req.candidate:
                return False, f"voted for {already}"
        if req.last_opid < self.last_opid:
            return False, "log behind"
        return True, "ok"

    def _handle_vote_response(self, src: str, resp: RequestVoteResponse) -> None:
        if resp.is_mock:
            self._handle_mock_vote_response(src, resp)
            return
        if resp.term > self.current_term:
            self._step_down(resp.term, leader=None)
            return
        if resp.is_pre_vote:
            tally = self._pre_vote_tally
            if tally is not None:
                self._absorb_vote_knowledge(tally, resp)
                self._check_pre_vote_quorum()
            return
        tally = self._vote_tally
        if tally is None or resp.term != self.current_term:
            # A grant that was in flight when its candidacy was abandoned
            # missed the retractions — unless this node won that term, or
            # cannot tell any more because it knows a newer leader.
            won = self._durable["last_leader"][:2]
            if resp.granted and won[0] <= resp.term and won != (resp.term, self.name):
                self.host.send(src, VoteRetraction(term=resp.term, candidate=self.name))
            return
        self._absorb_vote_knowledge(tally, resp)
        self._check_vote_quorum()
        if not resp.granted and self._vote_tally is tally and not self._would_elect(
            tally, tally.attainable(self.membership.voter_names())
        ):
            self._abandon_election("hopeless")

    @staticmethod
    def _absorb_vote_knowledge(tally: VoteTally, resp: RequestVoteResponse) -> None:
        """Fold one vote response into the tally's FlexiRaft knowledge.

        Leader knowledge *relaxes* the required quorum (newer leader ⇒
        older history pruned, intersection region switched), so it is
        only taken from voters that granted — a grantor's leader
        knowledge is backed by its log, which the up-to-date check then
        chains into the candidate's. A denier's knowledge carries no such
        log guarantee and must not relax anything. Vote history only
        *tightens* the quorum, so it is welcome from every response.
        """
        tally.record(resp.voter, resp.granted)
        if resp.granted:
            tally.learn_leader(resp.last_leader_term, resp.last_leader_region)
        tally.learn_history(resp.vote_history)

    # -- role transitions -----------------------------------------------------------

    def _become_leader(self) -> None:
        self.metrics["elections_won"] += 1
        tally = self._vote_tally
        granted = (
            frozenset(tally.granted) if tally is not None else frozenset({self.name})
        )
        self.role = RaftRole.LEADER
        self.leader_id = self.name
        self._vote_tally = None
        self._learn_leader(self.current_term, self.name)
        if self._election_timer is not None:
            self._election_timer.cancel()
            self._election_timer = None
        self.leader_state = LeaderState.fresh(
            self.current_term,
            self.name,
            self.membership,
            self.last_opid.index,
            flow=FlowControl(
                max_inflight_windows=self.config.max_inflight_windows,
                window_min=self.config.append_window_min,
                window_max=self.config.max_entries_per_append,
            ),
            proxy_health_timeout=self.config.proxy_health_timeout,
            on_region_head=self._on_region_head,
        )
        if self.config.read_mode == "lease":
            self.lease = LeaderLease(
                self.host.clock, self.config.lease_duration, self.config.clock_drift_bound
            )
            self.lease.apply_holdoff(self._lease_holdoff_hint)
        self._lease_holdoff_hint = 0.0
        if self.monitor is not None:
            self.monitor.on_leader_elected(self, granted)
        # §3.3 step 1: assert leadership with a no-op entry; committing it
        # consensus-commits the whole log tail.
        noop_opid = self._append_noop()
        self._trace("raft.leader_elected", noop=str(noop_opid))
        self.hooks.on_elected_leader(self.current_term, noop_opid)
        self._replicate_all(force=True)
        self._schedule_heartbeat()
        if self._self_is_witness():
            # Temporary witness leader (§4.1): acks drive the hand-off.
            self.leader_state.handoff_tried = set()

    def _self_is_witness(self) -> bool:
        member = self.membership.member(self.name)
        return member is not None and member.is_witness

    def _witness_handoff(self, acker: str | None = None) -> None:
        """Hand a witness's leadership to the most caught-up database that
        has answered this term and not yet failed an attempt (§4.1).

        Runs when a database acks an entry of this term (``acker``) —
        the first such ack is the first moment a live, caught-up target is
        known — and again the moment an attempt fails. A member that has
        not answered, such as the crashed primary that caused the
        election, is never a target. Once every answering database has
        been tried, the next ack starts the round again."""
        state = self.leader_state
        if state is None or state.handoff_tried is None:
            return
        if self._pending_transfer is not None and not self._pending_transfer.done():
            return
        databases = [
            m.name for m in self.membership.voters() if m.has_storage_engine
        ]
        if acker is not None and acker not in databases:
            return
        tried = state.handoff_tried
        target = state.most_caught_up_peer([n for n in databases if n not in tried])
        if target is None:
            tried.clear()
            return
        tried.add(target)
        self.metrics["handoff_attempts"] += 1
        self._trace("raft.witness_handoff", target=target)

        def settle(completed: SimFuture) -> None:
            if self.leader_state is not state or not self.host.alive:
                return
            if completed.exception() is None and completed.result():
                state.handoff_tried = None  # TimeoutNow sent: the target's turn
            else:
                self._witness_handoff()

        self.transfer_leadership(target).add_done_callback(settle)

    def _become_follower_bookkeeping_only(self) -> None:
        """Clear leader-side volatile state without role-change hooks."""
        self.leader_state = None
        self._vote_tally = None
        # Dropping the lease stops lease-serving instantly; pending read
        # barriers can no longer be confirmed and fail cleanly.
        self.lease = None
        self.reads.fail_all(NotLeaderError(f"{self.name} lost leadership"))
        if self.snapshots is not None:
            self.snapshots.on_step_down()

    def _step_down(self, term: int, leader: str | None) -> None:
        was_leader = self.role == RaftRole.LEADER
        if self.role == RaftRole.CANDIDATE:
            self._retract_candidacy("stepped-down")
        if term > self.current_term:
            self._set_term(term)
        self.role = RaftRole.FOLLOWER if self._is_voter else RaftRole.LEARNER
        self._become_follower_bookkeeping_only()
        self.leader_id = leader
        if was_leader:
            self._trace("raft.stepped_down", new_leader=leader)
            self._fail_pending_proposals(NotLeaderError(f"{self.name} lost leadership"))
            if self._pending_transfer is not None and not self._pending_transfer.done():
                # Losing leadership before TimeoutNow means the transfer as
                # such failed (a new leader emerged some other way).
                self._finish_transfer(False, "stepped down mid-transfer")
            self.hooks.on_demoted(self.current_term, leader)
        self._reset_election_timer()

    def _fail_pending_proposals(self, error: Exception) -> None:
        pending, self._pending_proposals = self._pending_proposals, {}
        for future in pending.values():
            future.fail_if_pending(error)

    # --------------------------------------------------------------- propose

    def propose(self, payload_factory: PayloadFactory, kind: str = ENTRY_KIND_DATA,
                metadata: tuple = ()) -> tuple[OpId, SimFuture]:
        """Leader-only: append an entry and return (opid, consensus future).

        The future resolves with the OpId at consensus commit and fails
        with :class:`NotLeaderError` if leadership is lost first.

        The entry is *staged*: the OpId is assigned immediately, but the
        storage append, self-ack, and replication fan-out happen once per
        microbatch (group commit) instead of once per proposal.
        """
        if not self.is_leader:
            raise NotLeaderError(f"{self.name} is {self.role.value}, not leader")
        self.metrics["proposals"] += 1
        return self._stage_proposal(payload_factory, kind, metadata)

    def propose_batch(
        self, payload_factories: list, kind: str = ENTRY_KIND_DATA
    ) -> list[tuple[OpId, SimFuture]]:
        """Leader-only: propose a whole group-commit flush group at once.

        The binlog group-commit boundary survives into the Raft log: the
        group's entries are contiguous, in submission order, and (up to
        ``propose_batch_max``) land in one storage append. Returns one
        (opid, consensus future) pair per factory."""
        if not self.is_leader:
            raise NotLeaderError(f"{self.name} is {self.role.value}, not leader")
        results = []
        for factory in payload_factories:
            self.metrics["proposals"] += 1
            results.append(self._stage_proposal(factory, kind, ()))
        return results

    def _stage_proposal(
        self, payload_factory: PayloadFactory, kind: str, metadata: tuple
    ) -> tuple[OpId, SimFuture]:
        opid = self._accumulator.stage(payload_factory, kind, metadata)
        future = SimFuture(self.host.loop, label=f"consensus:{opid}")
        self._pending_proposals[opid.index] = future
        return opid, future

    def _commit_staged(self, staged: list[LogEntry]) -> None:
        """Accumulator flush: make the whole microbatch durable with one
        storage append per ``propose_batch_max`` chunk, then self-ack and
        run one replication fan-out for the batch."""
        if not self.is_leader:
            # Unreachable through the flush barriers (any step-down
            # flushes first); kept as a safety net for embeddings that
            # drive the node directly.
            error = NotLeaderError(f"{self.name} lost leadership")
            for entry in staged:
                future = self._pending_proposals.pop(entry.opid.index, None)
                if future is not None:
                    future.fail_if_pending(error)
            return
        limit = self.config.propose_batch_max
        for offset in range(0, len(staged), limit):
            chunk = staged[offset : offset + limit]
            self.storage.append(chunk)
            self.metrics["proposal_batches"] += 1
        for entry in staged:
            self.cache.put(entry)
        if self.leader_state is not None:
            # Self-ack only now: like real group commit, entries count
            # toward the quorum once the (simulated) WAL write finishes.
            self.leader_state.last_log_index = staged[-1].opid.index
        self.hooks.on_entries_appended(staged, from_leader=False)
        self._maybe_advance_commit()
        self._resolve_proposals(self.commit_index)
        self._replicate_all(force=False)

    def _flush_staged_proposals(self) -> None:
        """Barrier: no RPC handler, heartbeat, or leadership action may
        observe staged-but-unappended proposals."""
        self._accumulator.flush()

    def _append_noop(self) -> OpId:
        """A new leader's no-op, appended at once rather than staged, so
        the replication round that follows election already carries it."""
        opid = OpId(self.current_term, self.last_opid.index + 1)
        entry = LogEntry(opid, self.hooks.noop_payload(self.name)(opid), ENTRY_KIND_NOOP)
        self.storage.append([entry])
        self.cache.put(entry)
        if self.leader_state is not None:
            self.leader_state.last_log_index = opid.index
        self.hooks.on_entries_appended([entry], from_leader=False)
        # Self-vote: maybe this alone satisfies the quorum (single node).
        self._maybe_advance_commit()
        return opid

    # -- membership changes (§2.2) ---------------------------------------------------

    def _has_uncommitted_config(self) -> bool:
        return self.membership.config_index > self.commit_index

    def add_member(self, member: MemberInfo) -> tuple[OpId, SimFuture]:
        """Leader-only AddMember; one change at a time."""
        if not self.is_leader:
            raise NotLeaderError(f"{self.name} is not leader")
        if self._has_uncommitted_config():
            raise MembershipError("a membership change is already in flight")
        new_config = self.membership.with_added(member, self.last_opid.index + 1)
        return self._propose_config("add", member.name, new_config)

    def remove_member(self, name: str) -> tuple[OpId, SimFuture]:
        if not self.is_leader:
            raise NotLeaderError(f"{self.name} is not leader")
        if self._has_uncommitted_config():
            raise MembershipError("a membership change is already in flight")
        if name == self.name:
            raise MembershipError("leader cannot remove itself; transfer first")
        new_config = self.membership.with_removed(name, self.last_opid.index + 1)
        return self._propose_config("remove", name, new_config)

    def _propose_config(
        self, change: str, subject: str, new_config: MembershipConfig
    ) -> tuple[OpId, SimFuture]:
        wire = new_config.to_wire()
        factory = self.hooks.config_payload(change, subject, wire)
        self._trace("raft.config_change", change=change, subject=subject)
        return self.propose(factory, ENTRY_KIND_CONFIG, metadata=wire)

    def _adopt_config_from(self, entry: LogEntry) -> None:
        self.membership = MembershipConfig.from_wire(entry.metadata, entry.opid.index)
        self_member = self.membership.member(self.name)
        self._is_voter = self_member.is_voter if self_member else False
        if self.leader_state is not None:
            for member in self.membership.peers_of(self.name):
                self.leader_state.ensure_peer(member.name)
            for tracked in list(self.leader_state.peers):
                if tracked not in self.membership:
                    self.leader_state.drop_peer(tracked)

    # ----------------------------------------------------------- replication

    def _schedule_heartbeat(self) -> None:
        if not self.is_leader:
            return
        self.host.call_after(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        self._flush_staged_proposals()
        # The leader is its own evidence of a live leader: keep the
        # stickiness window open so it denies disruptive vote requests.
        self._last_leader_contact = self.host.loop.now
        self._replicate_all(force=True)
        if self.config.read_mode != "barrier":
            # Lease mode: every tick earns a quorum round so the lease
            # stays continuously valid; all modes: re-send stalled probes.
            self.reads.keepalive()
        self._schedule_heartbeat()

    def _replicate_all(self, force: bool) -> None:
        if self.leader_state is None:
            return
        self.metrics["replication_rounds"] += 1
        self._replicate_many(
            [member.name for member in self.membership.peers_of(self.name)], force
        )

    def _replicate_to(self, peer: str, force: bool) -> None:
        self._replicate_many([peer], force)

    def _replicate_many(self, peers: list[str], force: bool) -> None:
        """Send each of ``peers`` its next window: one storage read (and
        one immutable entries tuple) per distinct send cursor, and one
        WAN message per remote region — whenever a region's head (the
        proxy ``LeaderState.routes`` roots it at for this pass) is sent
        entries, every member behind it that stands at the window's start
        rides on that message as a fan-out destination (§4.2)."""
        state = self.leader_state
        if state is None:
            return
        now = self.host.loop.now
        last = self.last_opid.index
        windows: dict[tuple[int, int], tuple[OpId, tuple]] = {}
        starts: dict[str, int] = {}
        for peer in peers:
            start = state.ensure_peer(peer).send_window_start(
                last,
                self.config.append_retry_interval,
                now,
                force,
                heartbeat_suppress_window=self.config.heartbeat_interval,
                commit_index=self.commit_index,
            )
            if start is not None:
                starts[peer] = start
        if not starts:
            return
        chains, behind = state.routes(self.membership, self.router, now)
        # Unrouted peers (and heartbeats: tiny anyway) first: what a routed
        # peer gets depends on what its proxy is sent, this pass included.
        routed = []
        for peer, start in list(starts.items()):
            if start <= last and peer in chains:
                routed.append(peer)
                continue
            progress = state.peers[peer]
            window = self._window_at(peer, progress, start, windows)
            if window is None:
                continue
            riders = ()
            if window[1] and peer in behind and state.proxy_is_healthy(peer, now):
                riders = self._take_riders(behind[peer], window, starts, now)
            self._send_window(peer, progress, window, now, riders)
        for peer in routed:
            if peer in starts:  # did not ride on its proxy's message
                self._send_routed(
                    peer, state.peers[peer], starts[peer], chains[peer], windows, now
                )

    def _take_riders(
        self, behind: list[str], window: "tuple[OpId, tuple]", starts: dict, now: float
    ) -> tuple:
        """The members behind a proxy that stand exactly at the start of
        the window it is being sent: the proxy's window is theirs, in no
        message of their own — whatever their own budget or in-flight cap
        (the one WAN stream is paced by the proxy's). Taken out of
        ``starts``."""
        state = self.leader_state
        prev_opid, entries = window
        riders = []
        for peer in behind:
            progress = state.peers.get(peer)
            if progress is None or progress.routed_around:
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
        self,
        peer: str,
        progress: Any,
        start: int,
        windows: "dict[tuple[int, int], tuple[OpId, tuple]]",
    ) -> "tuple[OpId, tuple] | None":
        """The ``(prev_opid, entries)`` window for ``peer`` from ``start``
        (empty entries: a heartbeat), or None when a snapshot went out
        instead."""
        # Adaptive flow control gives each peer its own entry budget, so
        # shared windows memoize on (start, budget) — peers with equal
        # cursors *and* budgets still share one storage read.
        limit = progress.window_entries
        key = (start, limit)
        window = windows.get(key)
        if window is not None:
            return window
        prev_index = start - 1
        last = self.last_opid
        # Pure heartbeats (start just past the tail) resolve the prev
        # term from the O(1) tail opid instead of a storage lookup.
        if prev_index == last.index and prev_index > 0:
            prev_term = last.term
        else:
            prev_term = self._term_at(prev_index)
        if prev_term is None or start < self.storage.first_index():
            # Peer is so far behind that our log was purged below its
            # next_index (LogTruncatedError territory): state transfer
            # is the only way to catch it up. Ship a snapshot when the
            # machinery is wired; otherwise resend from the oldest we
            # still have (pure-protocol rings never purge mid-stream).
            if self._maybe_ship_snapshot(peer):
                return None
            start = self.storage.first_index()
            prev_index = start - 1
            prev_term = self._term_at(prev_index) or 0
            key = (start, limit)
            window = windows.get(key)
            if window is not None:
                return window
        entries = tuple(
            self._entries_for_send(start, limit, self.config.max_bytes_per_append)
        )
        window = windows[key] = (OpId(prev_term, prev_index), entries)
        return window

    def _note_sent(self, progress: Any, entries: tuple, now: float) -> None:
        """Leader bookkeeping for one window on its way to one peer —
        in a message of its own, as a PROXY_OP, or riding on its proxy's
        (``append_sizes`` counts windows per peer, however they travel)."""
        if entries:
            tail = entries[-1].opid.index
            progress.last_sent_index = tail
            progress.note_sent_window(tail)
            if len(progress.inflight) > self.metrics["inflight_hwm"]:
                self.metrics["inflight_hwm"] = len(progress.inflight)
            self.append_sizes.record(float(len(entries)))
        progress.last_sent_time = now
        progress.last_sent_commit = self.commit_index

    def _send_window(
        self,
        peer: str,
        progress: Any,
        window: "tuple[OpId, tuple]",
        now: float,
        fanout: tuple = (),
    ) -> None:
        prev_opid, entries = window
        self._note_sent(progress, entries, now)
        self.host.send(
            peer,
            AppendEntriesRequest(
                term=self.current_term,
                leader=self.name,
                prev_opid=prev_opid,
                commit_opid=self.commit_opid,
                entries=entries,
                final_dest=peer,
                fanout=fanout,
            ),
        )

    def _entry_for_read(self, index: int) -> LogEntry | None:
        """Serve one entry from the in-memory cache; fall back to the log
        abstraction (parsing historical binlog files) on a miss (§3.1).
        Fallback hits populate the cache (read-through) so one lagging
        reader warms the path for every peer behind it. May raise
        :class:`LogTruncatedError` for purged indexes."""
        entry = self.cache.get(index)
        if entry is not None:
            return entry
        entry = self.storage.entry(index)
        if entry is not None:
            self.cache.fill(entry)
        return entry

    def _entries_for_send(self, start: int, max_entries: int, max_bytes: int) -> list[LogEntry]:
        """Contiguous entries from ``start`` bounded by count and bytes
        (≥1 entry if one exists, so a huge entry still replicates)."""
        entries: list[LogEntry] = []
        total = 0
        index = start
        while len(entries) < max_entries:
            try:
                entry = self._entry_for_read(index)
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

    # -- the region tree (§4.2) ------------------------------------------------------

    def _on_region_head(self, group: str, head: str, reason: str) -> None:
        self.metrics["proxy_reroots"] += 1
        self._trace("raft.region_head", group=group, head=head, reason=reason)

    def _send_routed(
        self,
        peer: str,
        progress: Any,
        start: int,
        chain: tuple,
        windows: dict,
        now: float,
    ) -> None:
        """Entries from ``start`` for a peer that sits behind a proxy —
        its group's head — and did not ride on the head's own append in
        this pass. They cross the WAN as payload only when the head
        cannot serve them: it is unhealthy, the peer is routed around, or
        the peer is ahead of everything the head has been sent."""
        state = self.leader_state
        covered = 0
        if not progress.routed_around and all(
            state.proxy_is_healthy(hop, now) for hop in chain
        ):
            proxy = state.peers[chain[-1]]
            covered = proxy.sent_horizon - (start - 1)
            if covered == 0 and proxy.inflight:
                # Level with its proxy, which owes us an ack before it can
                # take more: this peer rides on the proxy's next window.
                return
        window = self._window_at(peer, progress, start, windows)
        if window is None:
            return
        prev_opid, entries = window
        if covered <= 0 or prev_opid.index != start - 1:
            self._send_window(peer, progress, window, now)
            return
        # PROXY_OP (§4.2.1): metadata for what the proxy has been sent;
        # the proxy reconstitutes the payload from its own log.
        entries = entries[:covered]
        self._note_sent(progress, entries, now)
        self.host.send(
            chain[0],
            AppendEntriesRequest(
                term=self.current_term,
                leader=self.name,
                prev_opid=prev_opid,
                commit_opid=self.commit_opid,
                proxy_opids=tuple(e.opid for e in entries),
                final_dest=peer,
                route=chain[1:],
            ),
        )

    def _forward_fanout(self, request: AppendEntriesRequest) -> None:
        """We are the proxy this append is addressed to, and members
        behind us stand at the same window: hand each the request we
        hold — no log read, no wait. Their acks are header-sized and
        cross the WAN once whichever way they go, so they go straight to
        the leader (like a ReadIndex response) instead of costing the
        region a relay each."""
        self.metrics["proxy_forwards"] += len(request.fanout)
        for dest in request.fanout:
            # (Spelled out, not ``replace``: once per rider per window.)
            self.host.send(
                dest,
                AppendEntriesRequest(
                    term=request.term,
                    leader=request.leader,
                    prev_opid=request.prev_opid,
                    commit_opid=request.commit_opid,
                    entries=request.entries,
                    final_dest=dest,
                    return_path=request.return_path,
                ),
            )

    def _handle_proxy_forward(self, src: str, request: AppendEntriesRequest) -> None:
        """We are a proxy hop for this message.

        Intermediate hops relay the message untouched (PROXY_OP stays
        metadata-only); the *final* proxy — the last hop before the
        destination — reconstitutes the payload from its local log, or
        degrades to a heartbeat if it can't (§4.2.1).
        """
        if request.route or not request.is_proxy_op:
            # Not the final hop, or the message already carries its
            # payload: pass it on and record ourselves on the return path
            # so the response can travel back up.
            self._send_along_route(
                replace(request, return_path=request.return_path + (self.name,))
            )
            return
        first = self.storage.first_index()
        if request.proxy_opids[0].index < first:
            # Purged: no wait brings it back. Our log serves from ``first``.
            self._degrade(request, first - 1)
            return
        entries = self._reconstitute(request)
        if entries is None:
            # §4.2.1: wait a configurable period for the missing entry to
            # arrive locally; re-check as our own log grows; degrade to a
            # heartbeat at the deadline.
            self._pending_proxy.append(request)
            self.host.call_after(
                self.config.proxy_wait_timeout, self._expire_proxy_wait, request
            )
            return
        self._forward_reconstituted(request, entries)

    def _reconstitute(self, request: AppendEntriesRequest) -> tuple | None:
        """The PROXY_OP's entries from our own log, or None while any is
        missing (or is another term's)."""
        entries = []
        for opid in request.proxy_opids:
            try:
                entry = self._entry_for_read(opid.index)
            except LogTruncatedError:
                return None
            if entry is None or entry.opid != opid:
                return None
            entries.append(entry)
        return tuple(entries)

    def _expire_proxy_wait(self, request: AppendEntriesRequest) -> None:
        if request in self._pending_proxy:
            self._pending_proxy.remove(request)
            self._degrade(request, request.proxy_opids[-1].index)

    def _degrade(self, request: AppendEntriesRequest, through: int) -> None:
        """Cannot reconstitute: the destination gets a heartbeat, and its
        response's echo of ``through`` tells the leader to serve this
        destination direct that far — O(lagging peers) degrades, never a
        loop."""
        self.metrics["proxy_degrades"] += 1
        self._trace("raft.proxy_degraded", dest=request.final_dest)
        self._send_along_route(
            replace(
                request,
                proxy_opids=(),
                degraded_through=through,
                return_path=request.return_path + (self.name,),
            )
        )

    def _retry_pending_proxies(self) -> None:
        """Called when our local log grows: satisfy waiting proxy ops."""
        still_waiting = []
        for request in self._pending_proxy:
            entries = self._reconstitute(request)
            if entries is None:
                still_waiting.append(request)
            else:
                self._forward_reconstituted(request, entries)
        self._pending_proxy = still_waiting

    def _forward_reconstituted(self, request: AppendEntriesRequest, entries: tuple) -> None:
        self.metrics["proxy_forwards"] += 1
        self._send_along_route(
            replace(
                request,
                entries=entries,
                proxy_opids=(),
                return_path=request.return_path + (self.name,),
            )
        )

    def _send_along_route(self, request: AppendEntriesRequest) -> None:
        if request.route:
            self.host.send(request.route[0], replace(request, route=request.route[1:]))
        else:
            self.host.send(request.final_dest, request)

    # -- AppendEntries (the receiving side) ----------------------------------------

    def _accept_leader_authority(self, term: int, leader: str) -> bool:
        """Shared prologue for leader-originated RPCs (AppendEntries and
        snapshot transfer): reject stale terms, adopt newer ones, record
        the leader, and refresh the failure detector. Returns whether the
        sender is an acceptable leader."""
        if term < self.current_term:
            return False
        if term > self.current_term or self.role != RaftRole.FOLLOWER:
            if self.role == RaftRole.LEARNER and term >= self.current_term:
                if term > self.current_term:
                    self._set_term(term)
                self.leader_id = leader
            else:
                self._step_down(term, leader=leader)
        else:
            self.leader_id = leader
        self._abandon_pre_vote("leader-contact")
        self._last_leader_contact = self.host.loop.now
        self._reset_election_timer()
        return True

    def _maybe_adopt_leader_knowledge(self, term: int, leader: str) -> None:
        """Durable last-leader knowledge — and the vote-history pruning
        and required-region switch it triggers — only advances once this
        node's log provably shares the leader's committed prefix: it must
        hold an entry of the leader's own term. Log matching then
        guarantees it carries everything committed before that term.
        Adopting on first contact would swap the election-intersection
        region to the new leader's before this voter covers the old
        region's commits, reopening the lost-committed-tail window the
        voting history exists to close."""
        if self.last_opid.term >= term:
            self._learn_leader(term, leader)

    def _handle_append_entries(self, src: str, request: AppendEntriesRequest) -> None:
        if request.final_dest and request.final_dest != self.name:
            self._handle_proxy_forward(src, request)
            return
        if request.is_proxy_op:
            # A PROXY_OP that reached its destination unreconstituted is a
            # protocol bug; treat as heartbeat-with-unknown-entries.
            request = replace(request, proxy_opids=())

        if not self._accept_leader_authority(request.term, request.leader):
            self._respond_append(request, success=False, ack_index=0)
            return
        if request.fanout:
            self._forward_fanout(request)

        # Log consistency check on prev_opid.
        prev = request.prev_opid
        local_prev_term = self._term_at(prev.index)
        if local_prev_term is None or (prev.index > 0 and local_prev_term != prev.term):
            self._respond_append(request, success=False, ack_index=0)
            return

        appended = self._append_from_leader(prev, list(request.entries))
        self._maybe_adopt_leader_knowledge(request.term, request.leader)
        ack_index = prev.index + len(request.entries)
        total_bytes = sum(e.size_bytes for e in request.entries)
        self._advance_follower_commit(min(request.commit_opid.index, ack_index))
        delay = self.timing.log_append_delay(total_bytes) if appended else 0.0
        if delay > 0:
            self.host.call_after(
                delay, self._respond_append, request, True, ack_index
            )
        else:
            self._respond_append(request, success=True, ack_index=ack_index)

    def _append_from_leader(self, prev: OpId, entries: list[LogEntry]) -> bool:
        """Append entries after ``prev``, truncating conflicts. Returns
        whether anything was written."""
        to_append: list[LogEntry] = []
        for entry in entries:
            local_term = self._term_at(entry.opid.index)
            if local_term is None:
                to_append.append(entry)
            elif local_term != entry.opid.term:
                removed = self.storage.truncate_from(entry.opid.index)
                self.cache.truncate_from(entry.opid.index)
                self._trace("raft.truncated", from_index=entry.opid.index, count=len(removed))
                self.hooks.on_truncated(removed)
                self.membership = self._rebuild_membership()
                to_append.append(entry)
            # else: duplicate of what we already have; skip.
        if not to_append:
            return False
        self.storage.append(to_append)
        for entry in to_append:
            self.cache.put(entry)
            if entry.kind == ENTRY_KIND_CONFIG:
                self._adopt_config_from(entry)
        self.hooks.on_entries_appended(to_append, from_leader=True)
        self._retry_pending_proxies()
        return True

    def _advance_follower_commit(self, index: int) -> None:
        if index > self.commit_index:
            old_index = self.commit_index
            self.commit_index = index
            if self.monitor is not None:
                self.monitor.on_commit_advance(self, old_index, index)
            self.hooks.on_commit_advance(self.commit_opid)

    def _respond_append(
        self, request: AppendEntriesRequest, success: bool, ack_index: int
    ) -> None:
        ack_term = self._term_at(ack_index) if success else None
        response = AppendEntriesResponse(
            term=self.current_term,
            follower=self.name,
            success=success,
            last_opid=OpId(ack_term or 0, ack_index) if success else self.last_opid,
            leader=request.leader,
            return_path=request.return_path,
            degraded_through=request.degraded_through,
        )
        if response.return_path:
            self.host.send(response.return_path[-1], response.popped())
        else:
            self.host.send(request.leader, response)

    def _handle_append_response(self, src: str, response: AppendEntriesResponse) -> None:
        # Proxied responses travel back up the return path to the leader
        # (§4.2.1); intermediate hops just relay.
        if response.leader and response.leader != self.name:
            if response.return_path:
                self.host.send(response.return_path[-1], response.popped())
            else:
                self.host.send(response.leader, response)
            return
        if not self.is_leader or self.leader_state is None:
            return
        if response.term > self.current_term:
            self._step_down(response.term, leader=None)
            return
        now = self.host.loop.now
        progress = self.leader_state.ensure_peer(response.follower)
        if response.success:
            progress.acked(response.last_opid.index, now)
            if response.degraded_through:
                # Its proxy could not reconstitute the window (§4.2.3).
                progress.route_around(response.degraded_through)
            if self.leader_state.counts_toward_commit(
                response.follower, self._effective_policy(), self.membership
            ):
                self._maybe_advance_commit()
            # Send more only if unsent entries remain; force=False avoids
            # answering every ack with an empty heartbeat (which would
            # ping-pong forever).
            if progress.next_index <= self.last_opid.index:
                self._replicate_to(response.follower, force=False)
            self._maybe_complete_transfer(response.follower)
            if (
                self.leader_state.handoff_tried is not None
                and response.last_opid.term == self.current_term
            ):
                self._witness_handoff(response.follower)
        else:
            progress.last_ack_time = now
            progress.on_rejected()
            progress.next_index = max(
                1, min(progress.next_index - 1, response.last_opid.index + 1)
            )
            progress.last_sent_index = 0
            progress.last_sent_time = -1e9
            self._replicate_to(response.follower, force=True)

    def _maybe_advance_commit(self) -> None:
        if self.leader_state is None:
            return
        new_commit = self.leader_state.advance_commit(
            self.commit_index,
            self._effective_policy(),
            self.membership,
            lambda index: self._term_at(index),
        )
        if new_commit > self.commit_index:
            old_index = self.commit_index
            self.commit_index = new_commit
            self._trace("raft.commit_advance", index=new_commit)
            if self.monitor is not None:
                self.monitor.on_commit_advance(self, old_index, new_commit)
            self.hooks.on_commit_advance(self.commit_opid)
            self._resolve_proposals(new_commit)

    def _resolve_proposals(self, commit_index: int) -> None:
        ready = [index for index in self._pending_proposals if index <= commit_index]
        for index in sorted(ready):
            future = self._pending_proposals.pop(index)
            term = self._term_at(index) or 0
            future.resolve_if_pending(OpId(term, index))

    # ------------------------------------------------- snapshot shipping (§3)

    def _maybe_ship_snapshot(self, peer: str) -> bool:
        """Leader side: start (or continue) snapshot transfer to a peer
        whose next_index fell below our purged log prefix."""
        if self.snapshots is None or self.snapshots.shipper is None:
            return False
        if peer not in self.membership:
            return False
        return self.snapshots.shipper.ship_to(peer, self.storage.first_index())

    def _snapshot_reject(self, src: str, snapshot_id: str) -> None:
        self.host.send(
            src,
            InstallSnapshotResponse(
                term=self.current_term,
                follower=self.name,
                snapshot_id=snapshot_id,
                next_seq=0,
                success=False,
            ),
        )

    def _handle_install_snapshot(self, src: str, request: InstallSnapshotRequest) -> None:
        installer = self.snapshots.installer if self.snapshots is not None else None
        if not self._accept_leader_authority(request.term, request.leader) or installer is None:
            self._snapshot_reject(src, request.snapshot_id)
            return
        self.host.send(src, installer.handle_offer(request))

    def _handle_snapshot_chunk(self, src: str, chunk: InstallSnapshotChunk) -> None:
        installer = self.snapshots.installer if self.snapshots is not None else None
        if not self._accept_leader_authority(chunk.term, chunk.leader) or installer is None:
            self._snapshot_reject(src, chunk.snapshot_id)
            return
        self.host.send(src, installer.handle_chunk(chunk))

    def _handle_snapshot_response(self, src: str, response: InstallSnapshotResponse) -> None:
        if response.term > self.current_term:
            self._step_down(response.term, leader=None)
            return
        if (
            not self.is_leader
            or self.leader_state is None
            or self.snapshots is None
            or self.snapshots.shipper is None
        ):
            return
        now = self.host.loop.now
        progress = self.leader_state.ensure_peer(response.follower)
        progress.last_ack_time = now
        installed = self.snapshots.shipper.handle_response(response.follower, response)
        if installed is not None:
            # The peer now holds everything through the image's OpId:
            # advance match/next past it and replicate the live tail.
            self.metrics["snapshots_shipped"] += 1
            progress.acked(installed.index, now)
            progress.last_sent_index = 0
            progress.last_sent_time = -1e9
            self._trace("raft.snapshot_shipped", peer=response.follower, opid=str(installed))
            self._maybe_advance_commit()
            self._replicate_to(response.follower, force=True)

    def adopt_snapshot(self, opid: OpId, members_wire: tuple = (), config_index: int = 0) -> None:
        """Follower side: align volatile Raft state with a just-installed
        snapshot (the service already re-based ``self.storage``).

        The image's membership (frozen at production) becomes our
        bootstrap config — the log no longer reaches back to a CONFIG
        entry, so ``_rebuild_membership`` must fall through to it.
        """
        if self.monitor is not None:
            # Before the commit bump below, so the monitor can compare the
            # image against the durable floor the install just replaced.
            self.monitor.on_snapshot_adopted(self, opid)
        if members_wire:
            self._durable["bootstrap_members"] = tuple(members_wire)
            self._durable["bootstrap_config_index"] = config_index
        if self.current_term < opid.term:
            self._set_term(opid.term)
        self.cache = LogCache(self.config.log_cache_max_bytes)
        self.membership = self._rebuild_membership()
        self_member = self.membership.member(self.name)
        self._is_voter = self_member.is_voter if self_member else False
        if self.role != RaftRole.LEADER:
            self.role = RaftRole.FOLLOWER if self._is_voter else RaftRole.LEARNER
        self.commit_index = max(self.commit_index, opid.index)
        self.metrics["snapshot_installs"] += 1
        self._trace("raft.snapshot_installed", opid=str(opid))
        self._reset_election_timer()

    # -------------------------------------------------- transfer of leadership

    def transfer_leadership(self, target: str) -> SimFuture:
        """Graceful promotion (§2.2): optionally mock-elect, wait for the
        target to catch up, then TimeoutNow. Resolves True on handoff."""
        self._flush_staged_proposals()
        future = SimFuture(self.host.loop, label=f"transfer->{target}")
        if not self.is_leader or self.leader_state is None:
            future.fail(NotLeaderError(f"{self.name} is not leader"))
            return future
        if target == self.name or target not in self.membership:
            future.fail(RaftError(f"invalid transfer target {target!r}"))
            return future
        member = self.membership.member(target)
        if not member.is_voter:
            future.fail(RaftError(f"transfer target {target!r} is not a voter"))
            return future
        if self._pending_transfer is not None and not self._pending_transfer.done():
            future.fail(RaftError("a transfer is already in progress"))
            return future
        self.metrics["transfers_initiated"] += 1
        self._pending_transfer = future
        self._transfer_target = target
        self._trace("raft.transfer_started", target=target)
        if self.config.enable_mock_election:
            self._start_mock_election(target)
        else:
            self._continue_transfer(target)
        return future

    def _start_mock_election(self, target: str) -> None:
        """§4.3: before quiescing anything, ask the target to run a mock
        pre-election with a snapshot of our cursor."""
        self.metrics["mock_elections"] += 1
        cursor = self.last_opid
        self._trace("raft.mock_election_requested", target=target, cursor=str(cursor))
        self.host.send(
            target,
            MockElectionRequest(term=self.current_term, leader=self.name, cursor=cursor),
        )
        self.host.call_after(
            self.config.mock_election_timeout, self._mock_election_expired, target,
            self.current_term,
        )

    def _mock_election_expired(self, target: str, term: int) -> None:
        if (
            self._pending_transfer is not None
            and not self._pending_transfer.done()
            and self._transfer_target == target
            and self.current_term == term
            and not self._mock_completed_for_transfer
        ):
            self._trace("raft.mock_election_timeout", target=target)
            self._finish_transfer(False, "mock election timed out")

    def _handle_mock_election_request(self, src: str, request: MockElectionRequest) -> None:
        """We are the intended new leader: run a mock vote round."""
        if request.term < self.current_term:
            self.host.send(
                src,
                MockElectionResult(
                    term=self.current_term, candidate=self.name, won=False, reason="stale term"
                ),
            )
            return
        self._mock_tally = VoteTally(term=request.term + 1)
        self._mock_tally.record(self.name, True)
        self._mock_tally.learn_leader(
            self.last_known_leader_term, self.last_known_leader_region
        )
        self._mock_reply_to = src
        vote_request = RequestVoteRequest(
            term=request.term + 1,
            candidate=self.name,
            last_opid=request.cursor,
            is_pre_vote=True,
            is_mock=True,
            cursor=request.cursor,
        )
        self._broadcast_to_voters(vote_request)
        self.host.call_after(
            self.config.mock_election_timeout * 0.8, self._mock_round_expired, request.term
        )
        self._check_mock_quorum()

    def _mock_round_expired(self, term: int) -> None:
        if self._mock_tally is not None and self._mock_reply_to is not None:
            self._finish_mock_round(won=False, reason="mock votes timed out")

    def _handle_mock_vote(self, src: str, req: RequestVoteRequest) -> None:
        """Voter side of a mock election (§4.3): the modified rule rejects
        the vote when *we* lag the cursor and share the candidate's
        region — lagging in-region members would stall the new leader's
        commit quorum."""
        candidate_member = self.membership.member(req.candidate)
        reason = "ok"
        granted = True
        if req.term <= self.current_term:
            granted, reason = False, "stale term"
        elif candidate_member is None:
            granted, reason = False, "unknown candidate"
        else:
            self_member = self.membership.member(self.name)
            same_region = (
                self_member is not None and self_member.region == candidate_member.region
            )
            # "Lagging" means unhealthy, not merely trailing the cursor by
            # in-flight replication: silent beyond the failure-detection
            # window, or behind by a pathological number of entries.
            stale_contact = (
                self.host.loop.now - self._last_leader_contact
                > self.config.election_timeout_base()
            )
            behind = req.cursor is not None and self.last_opid < req.cursor
            far_behind = (
                req.cursor is not None
                and req.cursor.index - self.last_opid.index
                > self.config.mock_election_max_lag_entries
            )
            if same_region and behind and (stale_contact or far_behind):
                granted, reason = False, "lagging in candidate region"
        self._trace("raft.mock_vote", candidate=req.candidate, granted=granted, reason=reason)
        self.host.send(
            src,
            RequestVoteResponse(
                term=self.current_term,
                voter=self.name,
                granted=granted,
                is_pre_vote=True,
                is_mock=True,
                reason=reason,
                last_leader_term=self.last_known_leader_term,
                last_leader_region=self.last_known_leader_region,
                vote_history=self.vote_history,
            ),
        )

    def _handle_mock_vote_response(self, src: str, resp: RequestVoteResponse) -> None:
        if self._mock_tally is None:
            return
        # Same knowledge rules as a real tally, so the mock verdict
        # predicts what the target's real election would conclude.
        self._absorb_vote_knowledge(self._mock_tally, resp)
        self._check_mock_quorum()

    def _check_mock_quorum(self) -> None:
        tally = self._mock_tally
        if tally is None:
            return
        if self._would_elect(tally, tally.granted):
            self._finish_mock_round(won=True, reason="quorum")

    def _finish_mock_round(self, won: bool, reason: str) -> None:
        reply_to = self._mock_reply_to
        self._mock_tally = None
        self._mock_reply_to = None
        if reply_to is not None:
            self.host.send(
                reply_to,
                MockElectionResult(
                    term=self.current_term, candidate=self.name, won=won, reason=reason
                ),
            )

    def _handle_mock_election_result(self, src: str, result: MockElectionResult) -> None:
        if (
            self._pending_transfer is None
            or self._pending_transfer.done()
            or self._transfer_target != result.candidate
        ):
            return
        self._trace(
            "raft.mock_election_result", target=result.candidate, won=result.won,
            reason=result.reason,
        )
        if result.won:
            self._mock_completed_for_transfer = True
            self._continue_transfer(result.candidate)
        else:
            self._finish_transfer(False, f"mock election lost: {result.reason}")

    def _continue_transfer(self, target: str) -> None:
        """Mock round passed (or disabled): quiesce, replicate until the
        target is caught up to the now-fixed tail, then TimeoutNow."""
        if not self.is_leader or self.leader_state is None:
            self._finish_transfer(False, "lost leadership mid-transfer")
            return
        # Quiesce: stop accepting new writes so the tail stops moving.
        # This is where graceful-promotion client downtime begins (§4.3).
        self.hooks.on_transfer_quiesce()
        if self.lease is not None:
            # Cede the lease now: from here on the target may become
            # leader (stickiness is bypassed), so lease reads must stop.
            # expires_at is kept so TimeoutNow can size the holdoff.
            self.lease.cede()
        self.host.call_after(
            self.config.transfer_catchup_timeout,
            self._transfer_catchup_expired,
            target,
            self.current_term,
        )
        self._replicate_to(target, force=True)
        self._maybe_complete_transfer(target)

    def _transfer_catchup_expired(self, target: str, term: int) -> None:
        if (
            self._pending_transfer is not None
            and not self._pending_transfer.done()
            and self._transfer_target == target
            and self.current_term == term
        ):
            self._trace("raft.transfer_catchup_timeout", target=target)
            self._finish_transfer(False, "target did not catch up in time")

    def _maybe_complete_transfer(self, acked_peer: str) -> None:
        if (
            self._pending_transfer is None
            or self._pending_transfer.done()
            or acked_peer != self._transfer_target
            or self.leader_state is None
        ):
            return
        if self._mock_tally is not None:
            return
        if self.config.enable_mock_election and not self._mock_completed_for_transfer:
            return
        if self.leader_state.match_of(acked_peer) >= self.last_opid.index:
            self._trace("raft.timeout_now_sent", target=acked_peer)
            holdoff = self.lease.remaining() if self.lease is not None else 0.0
            self.host.send(
                acked_peer,
                TimeoutNowRequest(
                    term=self.current_term, leader=self.name, lease_holdoff=holdoff
                ),
            )
            self._finish_transfer(True, "timeout-now sent")

    def _finish_transfer(self, ok: bool, reason: str) -> None:
        future = self._pending_transfer
        self._pending_transfer = None
        self._transfer_target = None
        was_quiesced = self._mock_completed_for_transfer or not self.config.enable_mock_election
        self._mock_completed_for_transfer = False
        if not ok and self.is_leader and was_quiesced:
            # The transfer failed but we are still the leader: resume.
            self.hooks.on_transfer_unquiesce()
            if self.lease is not None:
                # Safe to serve again: leadership was never lost and probe
                # rounds kept extending the window during the quiesce.
                self.lease.restore()
        if future is not None:
            future.resolve_if_pending(ok)

    def _handle_timeout_now(self, src: str, request: TimeoutNowRequest) -> None:
        if request.term < self.current_term or not self._is_voter:
            return
        self._trace("raft.timeout_now_received", from_leader=src)
        # Remember the predecessor's ceded-lease window: if we win this
        # election we must not serve lease reads until it has expired.
        self._lease_holdoff_hint = max(self._lease_holdoff_hint, request.lease_holdoff)
        self.start_election(is_transfer=True)

    # ---------------------------------------------- consistent reads (repro.reads)

    def request_read_index(self) -> SimFuture:
        """Entry point for consistent reads: a future resolving to a
        quorum-confirmed read index, wherever this node sits in the ring.

        - Leader with a valid lease: resolved immediately from
          ``commit_index`` — zero network rounds.
        - Leader without a (valid) lease: joins the next batched
          ReadIndex probe round.
        - Follower/learner: fetches the leader's ReadIndex over one
          (batched, possibly proxied) RPC.
        """
        if self.is_leader:
            if self.lease is not None and self.lease.valid():
                self.metrics["lease_reads"] += 1
                future = SimFuture(self.host.loop, label=f"lease-read:{self.name}")
                future.resolve(self.commit_index)
                return future
            return self.reads.acquire_read_index()
        return self._fetch_remote_read_index()

    def _fetch_remote_read_index(self) -> SimFuture:
        future = SimFuture(self.host.loop, label=f"read-fetch:{self.name}")
        if self.leader_id is None or self.leader_id == self.name:
            future.fail(NotLeaderError(f"{self.name} knows no leader"))
            return future
        # One fetch in flight per node, batched like the leader's probe
        # rounds: a read arriving while one is in flight waits for the
        # *next* fetch — the running one's index may have been captured
        # before this read was invoked.
        self._read_fetch_queue.append(future)
        if not self._read_fetch_inflight:
            self._start_read_fetch()
        return future

    def _start_read_fetch(self) -> None:
        self._read_fetch_waiters, self._read_fetch_queue = self._read_fetch_queue, []
        self._read_fetch_id += 1
        self._read_fetch_inflight = True
        self._send_read_fetch(self._read_fetch_id)

    def _fail_read_fetches(self, error: Exception) -> None:
        waiters = self._read_fetch_waiters + self._read_fetch_queue
        self._read_fetch_waiters, self._read_fetch_queue = [], []
        self._read_fetch_inflight = False
        for waiter in waiters:
            waiter.fail_if_pending(error)

    def _send_read_fetch(self, request_id: int, resend: bool = False) -> None:
        if not self._read_fetch_inflight or request_id != self._read_fetch_id:
            return
        self._read_fetch_waiters = [w for w in self._read_fetch_waiters if not w.done()]
        leader = self.leader_id
        if leader is None or leader == self.name:
            self._fail_read_fetches(NotLeaderError(f"{self.name} knows no leader"))
            return
        if not self._read_fetch_waiters:  # every caller gave up (timed out)
            self._read_fetch_inflight = False
            if self._read_fetch_queue:
                self._start_read_fetch()
            return
        self.metrics["read_index_fetches"] += 1
        # Whatever path swallowed the first attempt, the re-send skips it
        # (the fan-in twin of §4.2.3's route-around): straight to the leader.
        hops = [] if resend else self._read_fetch_hops(leader)
        request = ReadIndexRequest(
            term=self.current_term,
            requester=self.name,
            request_id=request_id,
            final_dest=leader,
            route=tuple(hops[1:]),
        )
        self.host.send(hops[0] if hops else leader, request)
        # Re-send while waiters remain (drops, leader change); the clients
        # behind the waiters carry the overall timeout.
        self.host.call_after(
            self.config.append_retry_interval, self._send_read_fetch, request_id, True
        )

    def _read_fetch_hops(self, leader: str) -> list[str]:
        """Proxy hops toward the leader (§4.2 fan-in): the same per-region
        proxy replication fans out through."""
        chain = self.router.chain_for(leader, self.name, self.membership)
        if not chain:
            return []
        return [hop for hop in chain if hop != self.name]

    def _handle_read_probe(self, src: str, request: ReadProbeRequest) -> None:
        ok = self._accept_leader_authority(request.term, request.leader)
        self.host.send(
            src,
            ReadProbeResponse(
                term=self.current_term,
                voter=self.name,
                round_id=request.round_id,
                success=ok,
            ),
        )

    def _handle_read_probe_response(self, src: str, response: ReadProbeResponse) -> None:
        if response.term > self.current_term:
            self._step_down(response.term, leader=None)
            return
        if response.success:
            self.reads.on_ack(response.voter, response.round_id, response.term)

    def _handle_read_index_request(self, src: str, request: ReadIndexRequest) -> None:
        if request.final_dest and request.final_dest != self.name:
            # We are a proxy hop: relay toward the leader.
            self.metrics["read_index_forwards"] += 1
            next_hop = request.route[0] if request.route else request.final_dest
            self.host.send(
                next_hop,
                ReadIndexRequest(
                    term=request.term,
                    requester=request.requester,
                    request_id=request.request_id,
                    final_dest=request.final_dest,
                    route=request.route[1:],
                ),
            )
            return
        if not self.is_leader:
            self.host.send(
                request.requester,
                ReadIndexResponse(
                    term=self.current_term,
                    leader=self.name,
                    request_id=request.request_id,
                    read_index=0,
                    success=False,
                ),
            )
            return
        if self.lease is not None and self.lease.valid():
            # A valid lease answers the fetch without a probe round.
            self.host.send(
                request.requester,
                ReadIndexResponse(
                    term=self.current_term,
                    leader=self.name,
                    request_id=request.request_id,
                    read_index=self.commit_index,
                ),
            )
            return
        future = self.reads.acquire_read_index()
        requester, request_id = request.requester, request.request_id

        def respond(done: SimFuture) -> None:
            if not self.host.alive:
                return
            if done.exception() is not None:
                response = ReadIndexResponse(
                    term=self.current_term,
                    leader=self.name,
                    request_id=request_id,
                    read_index=0,
                    success=False,
                )
            else:
                response = ReadIndexResponse(
                    term=self.current_term,
                    leader=self.name,
                    request_id=request_id,
                    read_index=done.result(),
                )
            self.host.send(requester, response)

        future.add_done_callback(respond)

    def _handle_read_index_response(self, src: str, response: ReadIndexResponse) -> None:
        if response.term > self.current_term:
            self._step_down(
                response.term, leader=response.leader if response.success else None
            )
        if not self._read_fetch_inflight or response.request_id != self._read_fetch_id:
            return
        self._read_fetch_inflight = False
        waiters, self._read_fetch_waiters = self._read_fetch_waiters, []
        for waiter in waiters:
            if response.success:
                waiter.resolve_if_pending(response.read_index)
            else:
                waiter.fail_if_pending(
                    NotLeaderError(f"{response.leader} is not (or no longer) leader")
                )
        if self._read_fetch_queue:
            self._start_read_fetch()

    # --------------------------------------------------------- quorum fixer

    def force_quorum(self, sufficient_voters: frozenset) -> None:
        """§5.3 step 3: override election quorum expectations so a chosen
        member can win despite a shattered quorum."""
        from repro.raft.quorum import ForcedQuorum

        self._quorum_override = ForcedQuorum(self.policy, sufficient_voters)
        self._trace("raft.quorum_forced", sufficient=sorted(sufficient_voters))

    def clear_quorum_override(self) -> None:
        """§5.3 step 4: restore normal quorum expectations."""
        self._quorum_override = None
        self._trace("raft.quorum_override_cleared")

    # -------------------------------------------------------------- dispatch

    def handle_message(self, src: str, message: Any) -> None:
        self._flush_staged_proposals()
        if isinstance(message, AppendEntriesRequest):
            self._handle_append_entries(src, message)
        elif isinstance(message, AppendEntriesResponse):
            self._handle_append_response(src, message)
        elif isinstance(message, RequestVoteRequest):
            self._handle_request_vote(src, message)
        elif isinstance(message, RequestVoteResponse):
            self._handle_vote_response(src, message)
        elif isinstance(message, VoteRetraction):
            self._handle_vote_retraction(src, message)
        elif isinstance(message, TimeoutNowRequest):
            self._handle_timeout_now(src, message)
        elif isinstance(message, MockElectionRequest):
            self._handle_mock_election_request(src, message)
        elif isinstance(message, MockElectionResult):
            self._handle_mock_election_result(src, message)
        elif isinstance(message, ReadProbeRequest):
            self._handle_read_probe(src, message)
        elif isinstance(message, ReadProbeResponse):
            self._handle_read_probe_response(src, message)
        elif isinstance(message, ReadIndexRequest):
            self._handle_read_index_request(src, message)
        elif isinstance(message, ReadIndexResponse):
            self._handle_read_index_response(src, message)
        elif isinstance(message, InstallSnapshotRequest):
            self._handle_install_snapshot(src, message)
        elif isinstance(message, InstallSnapshotChunk):
            self._handle_snapshot_chunk(src, message)
        elif isinstance(message, InstallSnapshotResponse):
            self._handle_snapshot_response(src, message)
        else:
            raise RaftError(f"{self.name}: unknown message {type(message).__name__}")

    # ------------------------------------------------------------- bootstrap

    def bootstrap_as_initial_leader(self) -> None:
        """Skip the first natural election when assembling a fresh ring
        (what enable-raft does after stopping writes, §5.2)."""
        if self.current_term != 0 or not self.storage.is_empty():
            raise RaftError("bootstrap requires a fresh node")
        if not self._is_voter:
            raise RaftError("bootstrap leader must be a voter")
        self._set_term(1)
        self._record_vote(1, self.name)
        self.role = RaftRole.CANDIDATE
        self._become_leader()

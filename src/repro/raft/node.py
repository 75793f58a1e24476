"""The Raft node: replication, membership, proxying, snapshots, dispatch.

One :class:`RaftNode` runs as (part of) a host's service. It is fully
event-driven — message handlers plus host timers — and keeps the paper's
separation: durable state (term, vote, last-leader knowledge) lives on
the host's disk; the log lives behind the :class:`LogStorage`
abstraction; everything else dies with the process.

Who leads is decided in two units the node builds per incarnation:
:mod:`~repro.raft.election` (timer, pre-vote, vote, the voter side,
retraction, the §4.1 voting history) and :mod:`~repro.raft.transfer`
(TransferLeadership, the §4.3 mock election, TimeoutNow, the witness
hand-off of §2.2/§4.1). Reads live in :mod:`repro.reads`.

MyRaft-specific behaviours implemented here:

- pluggable :class:`QuorumPolicy` (vanilla majority or FlexiRaft, §4.1);
- AppendEntries proxying: one WAN message per region (fan-out riders on
  the proxy's own append), PROXY_OP reconstitution for stragglers,
  degrade-to-heartbeat, and per-destination route-around (§4.2);
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
from repro.raft.election import Election
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
from repro.raft.proxy import AckFolds, RegionProxyRouter
from repro.raft.quorum import QuorumPolicy
from repro.raft.replication import FlowControl, LeaderState
from repro.raft.transfer import LeadershipTransfer
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
# Adaptive per-append window: starts at this many entries, doubles on
# every cleanly acked window up to max_entries_per_append, and collapses
# back on a rejection or retry timeout (slow-start, the Fast Raft /
# TCP-style flow-control shape).
APPEND_WINDOW_MIN = 8
# Byte cap on the entries one AppendEntries window carries.
MAX_BYTES_PER_APPEND = 1 << 20


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
            "acks_folded": 0,
            "folds_expired": 0,
            "probes_sent": 0,
            "transfers_initiated": 0,
            "handoff_attempts": 0,
            "snapshots_shipped": 0,
            "snapshot_installs": 0,
            "replication_rounds": 0,
            "read_probe_rounds": 0,
            "read_rounds_confirmed": 0,
            "read_index_fetches": 0,
            "lease_reads": 0,
            "proposals": 0,
            "proposal_batches": 0,
            "inflight_hwm": 0,
        }
        # Entry count of every entry-bearing AppendEntries sent while
        # leader (write-path observability; heartbeats excluded).
        self.append_sizes = LatencyHistogram("entries_per_append")

        # Volatile — rebuilt by _init_volatile on every (re)start.
        self._init_volatile()

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
        # Leader change: elections and graceful transfer. They act only
        # through what they are given here; the node dispatches their
        # messages.
        host = self.host
        self.election = Election(self, host.send, host.call_after, lambda: host.loop.now)
        self.transfer = LeadershipTransfer(self, host.send, host.call_after)
        self._pending_proposals: dict[int, SimFuture] = {}
        # Group-commit accumulator (§3.4 write-path batching).
        self._accumulator = ProposalAccumulator(self)
        self._pending_proxy: list[AppendEntriesRequest] = []
        # As a region's head: riders' acks held for folding, and the one
        # timer that closes the oldest fold at its deadline.
        self._folds = AckFolds(self.metrics)
        self._fold_timer_armed = False
        self._quorum_override: QuorumPolicy | None = None
        # Consistent-read machinery (repro.reads). All volatile: a crash
        # wipes the lease and every pending barrier, so a restarted
        # leader re-earns quorum confirmation before serving.
        self.reads = ReadManager(self)
        self.lease: LeaderLease | None = None
        self.election.reset_timer()

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
            self.election.abandon_pre_vote("term-changed")
        self._durable["current_term"] = term

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
            # and, when it leads, the groups it feeds through an acting head
            # and the peers it only probes.
            "proxy": {
                "forwards": self.metrics["proxy_forwards"],
                "degrades": self.metrics["proxy_degrades"],
                "reroots": self.metrics["proxy_reroots"],
                "acks_folded": self.metrics["acks_folded"],
                "folds_expired": self.metrics["folds_expired"],
                "probes": self.metrics["probes_sent"],
                "acting_heads": (
                    self.leader_state.acting_heads() if self.leader_state is not None else {}
                ),
                "silent": self.leader_state.silent() if self.leader_state is not None else [],
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
        self.transfer.on_crash(RaftError(f"{self.name} crashed"))
        crash_error = RaftError(f"{self.name} crashed")
        self.reads.fail_all(crash_error)
        self.reads.fetches.fail_all(crash_error)

    def on_restart(self) -> None:
        self._init_volatile()
        self._trace("raft.restarted")

    # ---------------------------------------------------------- role transitions

    def start_election(self, is_transfer: bool = False) -> None:
        """Become candidate and solicit real votes (``election.py``).

        ``is_transfer`` marks elections triggered by TimeoutNow: voters
        skip leader-stickiness checks for them.
        """
        self.election.start(is_transfer)

    def _become_leader(self) -> None:
        self.metrics["elections_won"] += 1
        election = self.election
        tally, election.vote_tally = election.vote_tally, None
        granted = (
            frozenset(tally.granted) if tally is not None else frozenset({self.name})
        )
        self.role = RaftRole.LEADER
        self.leader_id = self.name
        election.learn_leader(self.current_term, self.name)
        election.stop_timer()
        self.leader_state = LeaderState.fresh(
            self.current_term,
            self.name,
            self.membership,
            self.last_opid.index,
            flow=FlowControl(
                max_inflight_windows=self.config.max_inflight_windows,
                window_min=APPEND_WINDOW_MIN,
                window_max=self.config.max_entries_per_append,
            ),
            silent=tally.silent if tally is not None else frozenset(),
            on_region_head=self._on_region_head,
        )
        for peer in self.leader_state.silent():
            self._trace("raft.peer_silent", peer=peer, reason="presumed-dead")
        holdoff, self.transfer.lease_holdoff = self.transfer.lease_holdoff, 0.0
        if self.config.read_mode == "lease":
            self.lease = LeaderLease(
                self.host.clock, self.config.lease_duration, self.config.clock_drift_bound
            )
            self.lease.apply_holdoff(holdoff)
        if self.monitor is not None:
            self.monitor.on_leader_elected(self, granted)
        # §3.3 step 1: assert leadership with a no-op entry; committing it
        # consensus-commits the whole log tail.
        noop_opid = self._append_noop()
        self._trace("raft.leader_elected", noop=str(noop_opid))
        self.hooks.on_elected_leader(self.current_term, noop_opid)
        self._replicate_all(force=True)
        self._schedule_heartbeat()
        self.transfer.on_elected()

    def _become_follower_bookkeeping_only(self) -> None:
        """Clear leader-side volatile state without role-change hooks."""
        self.leader_state = None
        self.election.vote_tally = None
        # Dropping the lease stops lease-serving instantly; pending read
        # barriers can no longer be confirmed and fail cleanly.
        self.lease = None
        self.reads.fail_all(NotLeaderError(f"{self.name} lost leadership"))
        if self.snapshots is not None:
            self.snapshots.on_step_down()

    def _step_down(self, term: int, leader: str | None) -> None:
        was_leader = self.role == RaftRole.LEADER
        if self.role == RaftRole.CANDIDATE:
            self.election.retract("stepped-down")
        if term > self.current_term:
            self._set_term(term)
        self.role = RaftRole.FOLLOWER if self._is_voter else RaftRole.LEARNER
        self._become_follower_bookkeeping_only()
        self.leader_id = leader
        if was_leader:
            self._trace("raft.stepped_down", new_leader=leader)
            self._fail_pending_proposals(NotLeaderError(f"{self.name} lost leadership"))
            self.transfer.abort()
            self.hooks.on_demoted(self.current_term, leader)
        self.election.reset_timer()

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

    def keep_config_below(self, horizon: int) -> None:
        """The log is about to lose its entries below ``horizon`` (all
        committed). Make the config in effect there durable as the
        bootstrap config, which ``_rebuild_membership`` falls back to once
        the log holds no CONFIG entry: else a restart after a purge past
        the newest config reverts to the construction-time member list."""
        config = self.membership
        if config.config_index >= horizon:
            # A newer config is retained: find the one in effect below it.
            config = None
            floor = max(self.storage.first_index(), self._durable["bootstrap_config_index"] + 1)
            for index in range(horizon - 1, floor - 1, -1):
                entry = self.storage.entry(index)
                if entry is not None and entry.kind == ENTRY_KIND_CONFIG:
                    config = MembershipConfig.from_wire(entry.metadata, index)
                    break
        if config is not None and config.config_index > self._durable["bootstrap_config_index"]:
            self._durable["bootstrap_members"] = config.to_wire()
            self._durable["bootstrap_config_index"] = config.config_index

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
        self.election.last_leader_contact = self.host.loop.now
        self._replicate_all(force=True)
        # Lease mode: every tick earns a quorum round so the lease stays
        # continuously valid; both modes: re-send stalled probes.
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
            progress = state.ensure_peer(peer)
            answering = progress.answering
            start = progress.send_window_start(
                last,
                self.config.append_retry_interval,
                now,
                force,
                heartbeat_suppress_window=self.config.heartbeat_interval,
                commit_index=self.commit_index,
            )
            if answering and not progress.answering:
                self._trace("raft.peer_silent", peer=peer, reason="retry")
            if start is not None:
                starts[peer] = start
        if not starts:
            return
        chains, behind = state.routes(self.membership, self.router)
        # Unrouted peers, probes and heartbeats (tiny anyway) first: what a
        # routed peer gets depends on what its proxy is sent, this pass
        # included.
        routed = []
        for peer, start in list(starts.items()):
            progress = state.peers[peer]
            if start <= last and peer in chains and progress.answering:
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
            if peer in starts:  # did not ride on its proxy's message
                self._send_routed(
                    peer, state.peers[peer], starts[peer], chains[peer], windows, now
                )

    def _take_riders(
        self, behind: list[str], window: "tuple[OpId, tuple]", starts: dict, now: float
    ) -> tuple:
        """The answering members behind a proxy that stand exactly at the
        start of the window it is being sent: the proxy's window is
        theirs, in no message of their own — whatever their own budget or
        in-flight cap (the one WAN stream is paced by the proxy's). Taken
        out of ``starts``."""
        state = self.leader_state
        prev_opid, entries = window
        retry = self.config.append_retry_interval
        riders = []
        for peer in behind:
            progress = state.peers.get(peer)
            if progress is None or progress.routed_around or not progress.answering:
                continue
            if progress.inflight and now - progress.inflight_since >= retry:
                # Rule 2's retry, for a member its rides keep fresh: its
                # windows went unacked, so it is probed, not carried.
                progress.on_retry_timeout()
                self._trace("raft.peer_silent", peer=peer, reason="retry")
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
        (empty entries: a heartbeat, or a probe for a peer that is not
        answering), or None when a snapshot went out instead."""
        # Adaptive flow control gives each peer its own entry budget, so
        # shared windows memoize on (start, budget) — peers with equal
        # cursors *and* budgets still share one storage read.
        limit = progress.window_entries if progress.answering else 0
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
            self._entries_for_send(start, limit, MAX_BYTES_PER_APPEND)
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
            if not progress.inflight:
                progress.inflight_since = now
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
        if not progress.answering:
            self.metrics["probes_sent"] += 1
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
        """Entries from ``start`` for an answering peer that sits behind
        a proxy — its group's head — and did not ride on the head's own
        append in this pass. They cross the WAN as payload only when the
        head cannot serve them: it is not answering, the peer is routed
        around, or the peer is ahead of everything the head has been
        sent."""
        state = self.leader_state
        covered = 0
        if not progress.routed_around and all(state.is_answering(hop) for hop in chain):
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
        hold — no log read, no wait. Their acks come back through us and
        are folded into ours (:class:`AckFolds`), so the region answers
        the window with one WAN message, as it was sent one."""
        self.metrics["proxy_forwards"] += len(request.fanout)
        return_path = request.return_path + (self.name,)
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
                    return_path=return_path,
                ),
            )
        wait = self.config.proxy_wait_timeout
        self._folds.open(request, self.host.loop.now + wait)
        if not self._fold_timer_armed:
            self._fold_timer_armed = True
            self.host.call_after(wait, self._expire_folds)

    def _expire_folds(self) -> None:
        """The fold timer: close what is due, re-arm for the oldest fold
        still waiting (one timer per head, never one per window)."""
        now = self.host.loop.now
        for response in self._folds.expire(now):
            self.host.send(response.leader, response)
        deadline = self._folds.next_deadline()
        if deadline is None:
            self._fold_timer_armed = False
        else:
            self.host.call_after(deadline - now, self._expire_folds)

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
        self.election.refresh("leader-contact")
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
            self.election.learn_leader(term, leader)

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
        if prev.index == self.last_opid.index:
            # The steady state: ``prev`` is our tail and the consistency
            # check matched its term, so every entry is new — no
            # per-entry conflict probe.
            to_append = entries
        else:
            to_append = []
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
        elif request.fanout:
            # We are a head: hold our ack for the riders' (rule 1).
            for ready in self._folds.own(request, response):
                self.host.send(ready.leader, ready)
        else:
            self.host.send(request.leader, response)

    def _handle_append_response(self, src: str, response: AppendEntriesResponse) -> None:
        # Proxied responses travel back up the return path to the leader
        # (§4.2.1); intermediate hops just relay, and the last hop — the
        # head — folds its riders' acks into its own.
        if response.leader and response.leader != self.name:
            if response.return_path:
                self.host.send(response.return_path[-1], response.popped())
            else:
                for ready in self._folds.rider(response):
                    self.host.send(ready.leader, ready)
            return
        state = self.leader_state
        if not self.is_leader or state is None:
            return
        if response.term > self.current_term:
            self._step_down(response.term, leader=None)
            return
        if not response.success:
            self._on_rejected(response)
            return
        # One folded response acks the head and every rider it names, at
        # the same last_opid.
        acked = (response.follower, *response.riders) if response.riders else (response.follower,)
        policy, membership = self._effective_policy(), self.membership
        index, now = response.last_opid.index, self.host.loop.now
        advance = False
        progresses = []
        for follower in acked:
            progress = state.ensure_peer(follower)
            progresses.append(progress)
            if not progress.answering:  # any response is an answer
                self._trace("raft.peer_answering", peer=follower)
            progress.acked(index)
            progress.inflight_since = now
            if follower == response.follower and response.degraded_through:
                # Its proxy could not reconstitute the window (§4.2.3).
                progress.route_around(response.degraded_through)
            if state.counts_toward_commit(follower, policy, membership):
                advance = True
        if advance:
            self._maybe_advance_commit()
        # Send more only if unsent entries remain, in one pass; force=False
        # avoids answering every ack with an empty heartbeat (which would
        # ping-pong forever).
        last = self.last_opid.index
        behind = [
            follower for follower, progress in zip(acked, progresses)
            if progress.next_index <= last
        ]
        if behind:
            self._replicate_many(behind, force=False)
        handoff = (
            state.handoff_tried is not None and response.last_opid.term == self.current_term
        )
        for follower in acked:
            self.transfer.maybe_complete(follower)
            if handoff:
                self.transfer.witness_handoff(follower)

    def _on_rejected(self, response: AppendEntriesResponse) -> None:
        progress = self.leader_state.ensure_peer(response.follower)
        if not progress.answering:  # any response is an answer
            self._trace("raft.peer_answering", peer=response.follower)
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
        installed = self.snapshots.shipper.handle_response(response.follower, response)
        if installed is not None:
            # The peer now holds everything through the image's OpId:
            # advance match/next past it and replicate the live tail.
            self.metrics["snapshots_shipped"] += 1
            progress = self.leader_state.ensure_peer(response.follower)
            if not progress.answering:
                self._trace("raft.peer_answering", peer=response.follower)
            progress.acked(installed.index)
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
        self.election.reset_timer()

    # -------------------------------------------------- transfer of leadership

    def transfer_leadership(self, target: str) -> SimFuture:
        """Graceful promotion (§2.2, ``transfer.py``): optionally mock-elect,
        wait for the target to catch up, then TimeoutNow. Resolves True on
        handoff."""
        self._flush_staged_proposals()
        future = SimFuture(self.host.loop, label=f"transfer->{target}")
        return self.transfer.start(target, future)

    # ---------------------------------------------- consistent reads (repro.reads)

    def request_read_index(self) -> SimFuture:
        """Entry point for consistent reads (see ``ReadManager.read_index``)."""
        return self.reads.read_index()

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
            self.election.on_request_vote(src, message)
        elif isinstance(message, RequestVoteResponse):
            if message.is_mock:
                self.transfer.on_mock_vote(message)
            else:
                self.election.on_vote_response(src, message)
        elif isinstance(message, VoteRetraction):
            self.election.on_retraction(message)
        elif isinstance(message, TimeoutNowRequest):
            self.transfer.on_timeout_now(src, message)
        elif isinstance(message, MockElectionRequest):
            self.transfer.on_mock_request(src, message)
        elif isinstance(message, MockElectionResult):
            self.transfer.on_mock_result(message)
        elif isinstance(message, ReadProbeRequest):
            self._handle_read_probe(src, message)
        elif isinstance(message, ReadProbeResponse):
            self.reads.on_probe_response(message)
        elif isinstance(message, ReadIndexRequest):
            self.reads.answer_fetch(message)
        elif isinstance(message, ReadIndexResponse):
            self.reads.fetches.on_response(message)
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
        self.election.record_vote(1, self.name)
        self.role = RaftRole.CANDIDATE
        self._become_leader()

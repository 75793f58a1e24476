"""The Raft node: the core — term, vote, log and commit index — and the
RPC dispatch.

One :class:`RaftNode` runs as (part of) a host's service. It is fully
event-driven — message handlers plus host timers — and keeps the paper's
separation: durable state (term, vote, last-leader knowledge) lives on
the host's disk; the log lives behind the :class:`LogStorage`
abstraction; everything else dies with the process.

The protocol's larger parts are units the node builds per incarnation;
each acts only through the ``send`` / ``call_after`` / ``now`` it is
given, and the node dispatches their messages:

- :mod:`~repro.raft.election`: timer, pre-vote, vote, the voter side,
  retraction, the §4.1 voting history;
- :mod:`~repro.raft.transfer`: TransferLeadership, the §4.3 mock
  election, TimeoutNow, the witness hand-off of §2.2/§4.1;
- :mod:`~repro.raft.replication` (:class:`Replicator`): the leader's
  send side — windows, fan-out riders, PROXY_OPs — and its acks;
- :mod:`~repro.raft.proxy` (:class:`ProxyHop`): a member's half of the
  one-hop region tree (§4.2) — forwarding to riders, folding their acks,
  PROXY_OP reconstitution and degrade-to-heartbeat;
- :mod:`~repro.raft.batching` (:class:`ProposalAccumulator`): proposal
  staging, the batched append and self-ack, and the consensus futures;
- :mod:`~repro.raft.membership` (:class:`ConfigChanges`): AddMember /
  RemoveMember and the config in effect (§2.2);
- ``node.snapshots``: the InstallSnapshot RPCs, attached by
  :class:`repro.snapshot.SnapshotManager` (a no-op without one).

Reads live in :mod:`repro.reads`. Also here: the pluggable
:class:`QuorumPolicy` (vanilla majority or FlexiRaft, §4.1) and the
Quorum Fixer override hooks (§5.3).
"""

from __future__ import annotations

from typing import Any

from repro.errors import LogTruncatedError, NotLeaderError, RaftError
from repro.metrics.histogram import LatencyHistogram
from repro.raft.batching import ProposalAccumulator
from repro.raft.config import RaftConfig
from repro.raft.election import Election
from repro.raft.hooks import NoSnapshots, PayloadFactory, RaftHooks, TimingModel
from repro.raft.log_cache import LogCache
from repro.raft.log_storage import ENTRY_KIND_CONFIG, ENTRY_KIND_DATA, LogEntry, LogStorage
from repro.raft.membership import ConfigChanges, MembershipConfig
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
from repro.raft.proxy import ProxyHop, RegionProxyRouter
from repro.raft.quorum import QuorumPolicy
from repro.raft.replication import LeaderState, Replicator
from repro.raft.transfer import LeadershipTransfer
from repro.raft.types import OpId, RaftRole
from repro.reads import ReadManager
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.rng import RngStream

_DURABLE_NS = "raft"
_SNAPSHOT_RPCS = (InstallSnapshotRequest, InstallSnapshotChunk, InstallSnapshotResponse)
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
        # a router that names no proxy spells direct delivery.
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

        # Snapshot machinery (repro.snapshot.SnapshotManager attaches
        # itself; pure-protocol rings keep the no-op).
        self.snapshots: Any = NoSnapshots()
        self.config_changes = ConfigChanges(self)

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
            "proposals": 0,
            "proposal_batches": 0,
            "inflight_hwm": 0,
            "heartbeats_suppressed": 0,
        }
        # Entry count of every entry-bearing AppendEntries sent while
        # leader (write-path observability; heartbeats excluded).
        self.append_sizes = LatencyHistogram("entries_per_append")

        # Volatile — rebuilt by _init_volatile on every (re)start.
        self._init_volatile()

    # ------------------------------------------------------------------ state

    def _init_volatile(self) -> None:
        # The config in effect and whether we vote in it (membership.py).
        self.config_changes.rebuild()
        self.role = RaftRole.FOLLOWER if self._is_voter else RaftRole.LEARNER
        self.leader_id: str | None = None
        self.commit_index = 0
        self._commit_opid_memo = OpId.zero()
        self.leader_state: LeaderState | None = None
        self.cache = LogCache(self.config.log_cache_max_bytes)
        # The units: leader change, the leader's send side, and this
        # member's half of the region tree. They act only through what
        # they are given here; the node dispatches their messages.
        host = self.host
        now = lambda: host.loop.now
        self.election = Election(self, host.send, host.call_after, now)
        self.transfer = LeadershipTransfer(self, host.send, host.call_after)
        self.replicator = Replicator(self, host.send, now)
        self.proxy = ProxyHop(self, host.send, host.call_after, now)
        # Staged proposals and their futures (§3.4 write-path batching).
        self.proposals = ProposalAccumulator(self)
        self._quorum_override: QuorumPolicy | None = None
        # Consistent-read machinery (repro.reads). All volatile: a crash
        # wipes every pending barrier, so a restarted leader re-earns
        # quorum confirmation before serving.
        self.reads = ReadManager(self)
        self.election.reset_timer()

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
        staged = self.proposals.last_staged_opid
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
        staged_term = self.proposals.staged_term_at(index)
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
            "snapshot": self.snapshots.stats(),
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
        return {
            "proposals": self.metrics["proposals"],
            "proposal_batches": self.metrics["proposal_batches"],
            "entries_per_append": entries_per_append,
            "inflight_hwm": self.metrics["inflight_hwm"],
            "heartbeats_suppressed": self.metrics["heartbeats_suppressed"],
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
        self.proposals.discard(RaftError(f"{self.name} crashed"))
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
        self.leader_state = self.replicator.fresh_state(
            tally.silent if tally is not None else frozenset()
        )
        for peer in self.leader_state.silent():
            self._trace("raft.peer_silent", peer=peer, reason="presumed-dead")
        if self.monitor is not None:
            self.monitor.on_leader_elected(self, granted)
        # §3.3 step 1: assert leadership with a no-op entry; committing it
        # consensus-commits the whole log tail.
        noop_opid = self.proposals.append_noop()
        self._trace("raft.leader_elected", noop=str(noop_opid))
        self.hooks.on_elected_leader(self.current_term, noop_opid)
        self.replicator.replicate_all(force=True)
        self._schedule_heartbeat()
        self.transfer.on_elected()

    def _become_follower_bookkeeping_only(self) -> None:
        """Clear leader-side volatile state without role-change hooks."""
        self.leader_state = None
        self.election.vote_tally = None
        # Pending read barriers can no longer be confirmed: fail cleanly.
        self.reads.fail_all(NotLeaderError(f"{self.name} lost leadership"))
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
            self.proposals.fail_pending(NotLeaderError(f"{self.name} lost leadership"))
            self.transfer.abort()
            self.hooks.on_demoted(self.current_term, leader)
        self.election.reset_timer()

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
        return self.proposals.stage(payload_factory, kind, metadata)

    def propose_batch(
        self, payload_factories: list, kind: str = ENTRY_KIND_DATA
    ) -> list[tuple[OpId, SimFuture]]:
        """Leader-only: propose a whole group-commit flush group at once.

        The binlog group-commit boundary survives into the Raft log: the
        group's entries are contiguous, in submission order, and (up to
        ``PROPOSE_BATCH_MAX``) land in one storage append. Returns one
        (opid, consensus future) pair per factory."""
        if not self.is_leader:
            raise NotLeaderError(f"{self.name} is {self.role.value}, not leader")
        results = []
        stage = self.proposals.stage
        for factory in payload_factories:
            self.metrics["proposals"] += 1
            results.append(stage(factory, kind))
        return results

    # ----------------------------------------------------------- replication

    def _schedule_heartbeat(self) -> None:
        if not self.is_leader:
            return
        self.host.call_after(self.config.heartbeat_interval, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if not self.is_leader:
            return
        self.proposals.flush()
        # The leader is its own evidence of a live leader: keep the
        # stickiness window open so it denies disruptive vote requests.
        self.election.last_leader_contact = self.host.loop.now
        self.replicator.replicate_all(force=True)
        # Re-send stalled read probes.
        self.reads.keepalive()
        self._schedule_heartbeat()

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
        if request.is_proxy_op:
            # Only a PROXY_OP is ever addressed through a proxy: us.
            self.proxy.on_proxy_op(request)
            return
        if not self._accept_leader_authority(request.term, request.leader):
            self._respond_append(request, success=False, ack_index=0)
            return
        if request.fanout:
            self.proxy.forward(request)

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
                    self.config_changes.rebuild()
                    to_append.append(entry)
                # else: duplicate of what we already have; skip.
        if not to_append:
            return False
        self.storage.append(to_append)
        for entry in to_append:
            self.cache.put(entry)
            if entry.kind == ENTRY_KIND_CONFIG:
                self.config_changes.adopt_entry(entry)
        self.hooks.on_entries_appended(to_append, from_leader=True)
        self.proxy.on_log_grew()
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
            degraded_through=request.degraded_through,
        )
        self.proxy.answer(request, response)

    def _handle_append_response(self, src: str, response: AppendEntriesResponse) -> None:
        if response.leader and response.leader != self.name:
            # We are the head it came through (§4.2.1).
            self.proxy.relay(response)
            return
        state = self.leader_state
        if not self.is_leader or state is None:
            return
        if response.term > self.current_term:
            self._step_down(response.term, leader=None)
            return
        acked = self.replicator.on_response(response)
        handoff = (
            state.handoff_tried is not None and response.last_opid.term == self.current_term
        )
        for follower in acked:
            self.transfer.maybe_complete(follower)
            if handoff:
                self.transfer.witness_handoff(follower)

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
            self.proposals.resolve(new_commit)

    # -------------------------------------------------- transfer of leadership

    def transfer_leadership(self, target: str) -> SimFuture:
        """Graceful promotion (§2.2, ``transfer.py``): optionally mock-elect,
        wait for the target to catch up, then TimeoutNow. Resolves True on
        handoff."""
        self.proposals.flush()
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
        self.proposals.flush()
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
        elif isinstance(message, _SNAPSHOT_RPCS):
            self.snapshots.handle_message(src, message)
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

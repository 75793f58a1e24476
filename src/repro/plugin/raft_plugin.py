"""MyRaftServer: a complete MyRaft member (MySQL + plugin + kuduraft).

This is the paper's Figure 2 in one object: the MySQL server interfaces
with the ``mysql_raft_repl`` plugin, the plugin embeds the Raft node, and
Raft calls back into MySQL through the orchestration hooks. The hooks
decide *when* to flip; :class:`~repro.mysql.server.MySQLServer` runs the
steps, the same ones the semi-sync baseline's automation triggers:

- **promotion** (§3.3): no-op asserted by Raft → applier catches up and
  commits everything to the engine → logs rewired relay→binlog → client
  writes enabled → service discovery updated;
- **demotion** (§3.3): in-flight transactions aborted (online rollback of
  prepared state) → writes disabled → logs rewired binlog→relay → applier
  restarted from the engine's last committed transaction;
- **commit path** (§3.4/§3.5): the shared three-stage pipeline, with the
  flush stage proposing through Raft on the primary and writing the local
  applier log on replicas, and the wait stage consulting Raft's commit
  marker identically on both (the paper's symmetry design).
"""

from __future__ import annotations

from typing import Any

from repro.control.discovery import ServiceDiscovery
from repro.errors import LogTruncatedError, NotLeaderError, SimTimeoutError
from repro.mysql.events import RotateEvent, Transaction
from repro.mysql.logical_clock import LogicalClock, writeset_hashes
from repro.mysql.pipeline import PipelineTxn
from repro.mysql.server import MySQLMember, MySQLServer
from repro.mysql.timing import TimingProfile
from repro.plugin.binlog_storage import BinlogFsyncTiming, BinlogHooks, BinlogRaftLogStorage
from repro.raft.config import RaftConfig
from repro.raft.log_storage import ENTRY_KIND_DATA, LogEntry
from repro.raft.membership import MembershipConfig
from repro.raft.node import RaftNode
from repro.raft.quorum import QuorumPolicy
from repro.raft.types import OpId
from repro.sim.coro import SimFuture, with_timeout
from repro.sim.host import Host
from repro.sim.rng import RngStream
from repro.snapshot import SnapshotImage, SnapshotManager, seed_engine_namespaces
from repro.snapshot.producer import engine_delta, engine_image

# Capacity of the primary's last-writer writeset history; when it fills,
# the history resets and parallelism falls back to group boundaries until
# it re-warms (mirrors binlog_transaction_dependency_history_size).
WRITESET_HISTORY_SIZE = 2000
# Client-visible cap on one consistent-read barrier (quorum round or
# remote ReadIndex fetch + apply wait).
READ_BARRIER_TIMEOUT = 2.0


class _PluginHooks(BinlogHooks):
    """Raft → MySQL callback API (§3.1), delegating to the plugin."""

    def __init__(self, plugin: "MyRaftServer") -> None:
        self._plugin = plugin

    def on_elected_leader(self, term: int, noop_opid: OpId) -> None:
        self._plugin._on_elected_leader(term, noop_opid)

    def on_demoted(self, term: int, leader: str | None) -> None:
        self._plugin._on_demoted(term, leader)

    def on_transfer_quiesce(self) -> None:
        self._plugin.mysql.read_only = True

    def on_transfer_unquiesce(self) -> None:
        if self._plugin.node.is_leader:
            self._plugin.mysql.read_only = False

    def on_entries_appended(self, entries: list[LogEntry], from_leader: bool) -> None:
        self._plugin._on_entries_appended(entries, from_leader)

    def on_truncated(self, removed: list[LogEntry]) -> None:
        self._plugin._on_truncated(removed)

    def on_commit_advance(self, opid: OpId) -> None:
        self._plugin._on_commit_advance(opid)


class MyRaftServer(MySQLMember):
    """Host service: one MyRaft database member."""

    def __init__(
        self,
        host: Host,
        membership: MembershipConfig,
        policy: QuorumPolicy,
        raft_config: RaftConfig,
        timing: TimingProfile,
        rng: RngStream,
        router: Any | None = None,
        discovery: ServiceDiscovery | None = None,
        replicaset: str = "rs0",
    ) -> None:
        self.host = host
        self.discovery = discovery
        self.replicaset = replicaset
        self.mysql = MySQLServer(host, timing, rng)
        self.storage = BinlogRaftLogStorage(self.mysql.log_manager)
        self.node = RaftNode(
            host=host,
            config=raft_config,
            storage=self.storage,
            policy=policy,
            membership=membership,
            hooks=_PluginHooks(self),
            timing=BinlogFsyncTiming(timing, rng, "raft-disk"),
            rng=rng,
            router=router,
            ring_id=replicaset,
        )
        self.mysql.attach_driver(
            self.storage,
            replica_wait=self.wait_for_commit,
            primary_flush=self._leader_flush,
            primary_wait=self.wait_for_commit,
            apply_workers=raft_config.parallel_apply_workers,
        )
        self._commit_waiters: list[tuple[int, SimFuture]] = []
        self._clock: LogicalClock | None = None
        self.promotions = 0
        self.demotions = 0
        # Raft-side visibility of the engine apply watermark (replica
        # apply lag = commit_index - applied index, surfaced in stats()).
        self.node.applied_index_fn = lambda: self.mysql.engine.last_committed_opid.index
        self._wire_snapshots()
        self.mysql.start_replica_runtime()

    def writable_primary(self) -> bool:
        return self.node.is_leader and super().writable_primary()

    @property
    def primary_term(self) -> int:
        return self.node.current_term

    # -- host service interface -------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        from repro.semisync.messages import HealthPing, HealthPong

        if isinstance(message, HealthPing):
            # Monitoring keeps working across the enable-raft cutover.
            self.host.send(src, HealthPong(message.probe_id, self.host.name))
            return
        module = type(message).__module__
        if not module.startswith("repro.raft"):
            return  # stale prior-setup traffic right after a rollout
        self.node.handle_message(src, message)

    def on_crash(self) -> None:
        self.node.on_crash()
        for _, waiter in self._commit_waiters:
            waiter.fail_if_pending(NotLeaderError(f"{self.host.name} crashed"))
        self._commit_waiters.clear()

    def on_restart(self) -> None:
        """Crash recovery (§A.2): prepared engine transactions roll back,
        the binlog index is rebuilt from file bytes, Raft rejoins as a
        follower and reconciles its log with the new leader."""
        self.mysql.recover_after_restart()
        self.storage.reload(self.mysql.log_manager)
        self.node.on_restart()
        # Fresh manager: stale transfer sessions must not survive a crash
        # (follower-side staging is durable and resumes on its own).
        self._wire_snapshots()
        self.mysql.start_replica_runtime()
        self._trace("myraft.recovered")

    # -- pipeline stage behaviours ---------------------------------------------------

    def _leader_flush(self, group: list[PipelineTxn]) -> OpId:
        """Primary flush stage (§3.4): Raft assigns OpIds, stamps them —
        along with LOGICAL_CLOCK/WRITESET dependency metadata for the
        replicas' parallel appliers — into the payloads, writes the
        binlog, caches, and starts shipping."""
        clock = self._clock
        assert clock is not None
        clock.begin_group()
        factories = []
        for txn in group:
            writeset = (
                writeset_hashes(txn.engine_txn.changes)
                if txn.engine_txn is not None
                else ()
            )
            last_committed, sequence = clock.stamp(writeset)
            factories.append(
                lambda assigned, t=txn, lc=last_committed, sq=sequence, ws=writeset: (
                    t.payload.with_commit_meta(assigned, lc, sq, ws).encode()
                )
            )
        # The whole flush group goes down as one batch: the binlog
        # group-commit boundary survives into the Raft log (one multi-
        # entry storage append, one replication fan-out).
        results = self.node.propose_batch(factories, ENTRY_KIND_DATA)
        last: OpId | None = None
        for txn, (opid, _consensus) in zip(group, results):
            txn.opid = opid
            if txn.engine_txn is not None:
                txn.engine_txn.opid = opid
            last = opid
        assert last is not None
        return last

    def wait_for_commit(self, opid: OpId) -> SimFuture:
        """Stage-2 behaviour for both roles (§3.5's symmetry): resolve when
        Raft's consensus-commit marker covers ``opid``.

        The check is on the full OpId, not the bare index: if the log was
        truncated and a different term's entry now occupies the index,
        the waiter must fail (the transaction it was waiting for is gone),
        never be confirmed by the usurping entry's commit.
        """
        future = SimFuture(self.host.loop, label=f"wait-commit:{opid}")
        if self.node.commit_index >= opid.index:
            self._settle_commit_waiter(opid, future)
        else:
            self._commit_waiters.append((opid, future))
        return future

    def _settle_commit_waiter(self, opid: OpId, future: SimFuture) -> None:
        current = self.storage.opid_at(opid.index)
        if current == opid:
            future.resolve_if_pending(opid)
        else:
            future.fail_if_pending(
                NotLeaderError(f"entry {opid} was truncated before consensus commit")
            )

    # -- raft hook implementations ------------------------------------------------------

    def _on_commit_advance(self, opid: OpId) -> None:
        matured = [(o, f) for o, f in self._commit_waiters if o.index <= opid.index]
        self._commit_waiters = [(o, f) for o, f in self._commit_waiters if o.index > opid.index]
        for waited_opid, future in matured:
            self._settle_commit_waiter(waited_opid, future)

    def _on_entries_appended(self, entries: list[LogEntry], from_leader: bool) -> None:
        applier = self.mysql.applier
        if from_leader and applier is not None:
            applier.signal()

    def _on_truncated(self, removed: list[LogEntry]) -> None:
        # GTID metadata cleanup happens inside BinlogRaftLogStorage; the
        # engine never saw these transactions (they were not consensus
        # committed, hence never engine-committed). Any pipeline stage
        # still waiting on a removed entry must abort now.
        if removed:
            cut = min(entry.opid.index for entry in removed)
            affected = [(o, f) for o, f in self._commit_waiters if o.index >= cut]
            self._commit_waiters = [(o, f) for o, f in self._commit_waiters if o.index < cut]
            for waited_opid, future in affected:
                future.fail_if_pending(
                    NotLeaderError(f"entry {waited_opid} truncated from the log")
                )
            applier = self.mysql.applier
            if applier is not None and applier.cursor > cut:
                # The applier has already read (and possibly prepared) a
                # removed entry, and its cursor never rewinds on its own:
                # left alone it would skip straight past whatever the new
                # leader puts at these indices and the engine would
                # silently diverge. Restart the apply runtime from the
                # last transaction committed in the engine (§3.3 step 5)
                # — the same recipe a demotion uses — rolling back any
                # prepared-but-uncommitted work in flight.
                self.mysql.stop_runtime()
                self.mysql.start_replica_runtime()
        self._trace("myraft.log_truncated", count=len(removed))

    def _on_elected_leader(self, term: int, noop_opid: OpId) -> None:
        self.host.spawn(
            self._promotion(term, noop_opid), label=f"{self.host.name}:promotion"
        )

    def _promotion(self, term: int, noop_opid: OpId):
        """§3.3 replica → primary orchestration (steps 2–5; step 1, the
        no-op append, already happened inside Raft)."""
        self._trace("myraft.promotion_started", noop=str(noop_opid))
        promoted = yield from self.mysql.promote(
            noop_opid.index,
            proceed=lambda: self.node.is_leader and self.node.current_term == term,
        )
        if not promoted:
            self._trace("myraft.promotion_abandoned")
            return
        # Fresh logical clock per leadership: sequence numbers restart at
        # zero and replicas key the domain off the OpId term.
        self._clock = LogicalClock(history_size=WRITESET_HISTORY_SIZE)
        self.promotions += 1
        if self.discovery is not None:
            self.discovery.publish_primary(self.replicaset, self.host.name)
        self._trace("myraft.promoted")

    def _on_demoted(self, term: int, leader: str | None) -> None:
        """§3.3 primary → replica orchestration (synchronous: every step is
        an online, non-blocking operation)."""
        aborted = self.mysql.demote("leader demoted")
        self.demotions += 1
        self._trace("myraft.demoted", aborted=aborted, new_leader=leader)

    # -- snapshot shipping (producer + installer wiring) -----------------------------------

    def _wire_snapshots(self) -> None:
        """(Re)attach the snapshot manager; called at construction and on
        restart so transfer sessions never outlive an incarnation. The
        images are of whatever engine the server runs at the time."""
        SnapshotManager(
            self.host,
            self.node,
            produce_image=lambda chunk_bytes: engine_image(
                self.host, self.mysql.engine, self.node.membership, chunk_bytes
            ),
            install_image=self._install_snapshot_image,
            produce_delta=lambda chunk_bytes, base_index: engine_delta(
                self.host, self.mysql.engine, self.node.membership, chunk_bytes, base_index
            ),
            engine_watermark=lambda: self.mysql.engine.last_committed_opid.index,
            # Plain ``{name: {pk: row}}`` view for the delta merge and the
            # DeltaInstallSafety re-hash (rows are copied downstream).
            engine_tables=lambda: {
                name: self.mysql.engine.table(name).rows
                for name in self.mysql.engine.table_names()
            },
        )

    def _install_snapshot_image(self, image: SnapshotImage) -> None:
        """Cutover to a received snapshot (runs atomically in one event):
        wipe volatile runtime, seed the durable namespaces, restart the
        log at the image's OpId, resume tailing as a replica."""
        self._trace("myraft.snapshot_install_started", snapshot=image.snapshot_id)
        self.mysql.stop_runtime()
        for _, waiter in self._commit_waiters:
            waiter.fail_if_pending(
                NotLeaderError(f"{self.host.name} discarded its state for a snapshot install")
            )
        self._commit_waiters.clear()
        seed_engine_namespaces(
            self.host.disk, image.tables, image.executed_gtids, image.last_opid
        )
        self.host.disk.namespace("mysqllog").clear()
        self.mysql.reset_to_seeded_disk(persona="relay")
        self.storage.reload(self.mysql.log_manager)
        self.storage.seed_base(image.last_opid)
        self.node.snapshots.adopt(image.last_opid, image.members_wire, image.config_index)
        self.mysql.start_replica_runtime()
        self._trace("myraft.snapshot_installed", opid=str(image.last_opid))

    def snapshot_and_compact(self) -> list[str]:
        """Leader-only: produce a fresh snapshot image, then purge log
        files past the slowest region's watermark — the snapshot, not the
        retained log, now bootstraps anyone who needed the purged prefix."""
        if not self.node.is_leader:
            raise NotLeaderError(f"{self.host.name} is not the primary")
        self.node.snapshots.shipper.refresh_image()
        return self.purge_to_horizon()

    # -- operator commands ----------------------------------------------------------------

    def submit_read(self, table: str, pk):
        """Run one linearizable read; returns a Process resolving to
        ``(None, row | None)``.

        The read obtains a ReadIndex (``repro.reads``) — from a quorum
        probe round at the leader, or a fetch from the leader elsewhere —
        waits for the local engine to apply through it, and serves from
        the local engine with no log append.
        """
        return self.host.spawn(
            self._consistent_read(table, pk), label=f"{self.host.name}:read"
        )

    def _consistent_read(self, table: str, pk):
        read_index = yield with_timeout(
            self.host.loop, self.node.request_read_index(), READ_BARRIER_TIMEOUT
        )
        yield from self._wait_applied(read_index, READ_BARRIER_TIMEOUT)
        monitor = self.node.monitor
        if monitor is not None and hasattr(monitor, "on_consistent_read"):
            monitor.on_consistent_read(
                self.node, read_index, self.mysql.engine.last_committed_opid.index
            )
        self.mysql.reads_served += 1
        row = self.mysql.engine.table(table).get(pk)
        return None, (dict(row) if row is not None else None)

    def _applied_through(self, read_index: int) -> bool:
        """True once the engine state covers ``read_index``: every *data*
        entry at/below it is engine-committed. No-ops, config changes and
        rotations never move the engine watermark, so a gap between the
        watermark and the read index is fine as long as it holds no data."""
        applied = self.mysql.engine.last_committed_opid.index
        if applied >= read_index:
            return True
        for index in range(applied + 1, read_index + 1):
            try:
                entry = self.storage.entry(index)
            except LogTruncatedError:
                continue  # compacted below the snapshot base: applied by construction
            if entry is None or entry.kind == ENTRY_KIND_DATA:
                return False
        return True

    def _wait_applied(self, read_index: int, timeout: float):
        """Block until the engine has applied every data entry through
        ``read_index``. ``_applied_through`` is re-checked after every wait:
        the applier can be torn down and rebuilt underneath us (demotion),
        in which case the stale catch-up future never resolves and the
        read times out instead of serving early."""
        deadline = self.host.loop.now + timeout
        while not self._applied_through(read_index):
            if self.host.loop.now >= deadline:
                raise SimTimeoutError(
                    f"{self.host.name}: apply wait for read index {read_index} timed out"
                )
            applier = self.mysql.applier
            if applier is not None:
                yield with_timeout(
                    self.host.loop,
                    applier.catch_up_to(read_index),
                    deadline - self.host.loop.now,
                )
            else:
                # Primary: there is no applier — the commit pipeline moves
                # the engine watermark itself, trailing the consensus
                # marker only by the engine-commit stage. Poll at
                # sub-millisecond grain.
                yield 0.0005

    def flush_binary_logs(self):
        """FLUSH BINARY LOGS (§A.1): replicate a rotate through Raft."""
        if not self.node.is_leader:
            raise NotLeaderError(f"{self.host.name} is not the primary")
        factory = lambda opid: Transaction(events=(RotateEvent("next", opid),)).encode()
        _, future = self.node.propose(factory, "rotate")
        return future

    def purge_to_horizon(self) -> list[str]:
        """PURGE LOGS with Raft approval (§A.1): the leader purges below
        the slowest region's watermark — or past it, up to the newest
        snapshot image, since snapshot shipping re-seeds laggards; a
        replica purges below what it has applied to the engine."""
        if self.node.is_leader and self.node.leader_state is not None:
            from repro.flexiraft.watermarks import compaction_horizon

            image = self.node.snapshots.shipper.image
            horizon = compaction_horizon(
                self.node.membership,
                self.node.leader_state.match_of,
                snapshot_index=image.last_opid.index if image is not None else None,
                applied_floor=self.mysql.engine.last_committed_opid.index,
            )
        else:
            horizon = self.mysql.engine.last_committed_opid.index
        self.node.config_changes.keep_config_below(horizon)
        return self.storage.purge_files_below(horizon)

    def status(self) -> dict[str, Any]:
        return {**self.mysql.status(), **{"raft": self.node.status()}}

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.host.tracer is not None:
            self.host.tracer.emit(kind, host=self.host.name, **fields)

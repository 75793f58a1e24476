"""The simulated MySQL server.

Owns the storage engine, the replication logs, GTID allocation, and the
client write path (§3.4): prepare in the connection's thread, assign the
GTID at commit time, then hand the transaction to the commit pipeline
whose stage behaviours are supplied by the active replication driver
(the Raft plugin, or the semi-sync driver for the baseline).

The server also performs the §3.3 persona flip, written once for both
drivers: the replica runtime (applier pipeline plus applier over the
driver's log), promotion and demotion. It never flips on its own
initiative: the driver decides *when* (Raft callbacks for MyRaft,
external failover automation for semi-sync), in line with the paper's
design.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

from repro.errors import MySQLError, ReadOnlyError
from repro.mysql.applier import Applier
from repro.mysql.engine import StorageEngine
from repro.mysql.events import (
    GtidEvent,
    QueryEvent,
    RowsEvent,
    TableMapEvent,
    Transaction,
    XidEvent,
)
from repro.mysql.gtid import Gtid
from repro.mysql.log_manager import MySQLLogManager
from repro.mysql.pipeline import CommitPipeline, PipelineTxn
from repro.mysql.timing import TimingProfile
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.rng import RngStream


class ServerRole(enum.Enum):
    PRIMARY = "primary"
    REPLICA = "replica"


class MySQLServer:
    """One MySQL instance (engine + logs + commit path)."""

    def __init__(
        self,
        host: Host,
        timing: TimingProfile,
        rng: RngStream,
        initial_role: ServerRole = ServerRole.REPLICA,
        server_uuid: str | None = None,
    ) -> None:
        self.host = host
        self.timing = timing
        self.rng = rng.child(f"mysql/{host.name}")
        self.server_uuid = server_uuid or f"UUID-{host.name.upper()}"
        self.engine = StorageEngine(
            host.disk.namespace("engine.tables"), host.disk.namespace("engine.meta")
        )
        persona = "binlog" if initial_role == ServerRole.PRIMARY else "relay"
        self.log_manager = MySQLLogManager(host.disk.namespace("mysqllog"), persona=persona)
        meta = host.disk.namespace("mysql.meta")
        meta.setdefault("next_txn_id", 1)
        self._meta = meta
        self.role = initial_role
        self.read_only = initial_role != ServerRole.PRIMARY
        self.pipeline: CommitPipeline | None = None
        self.applier: Applier | None = None
        # STOP/START REPLICA SQL_THREAD; survives restarts and flips.
        self.sql_thread_enabled = True
        self._xids = itertools.count(1)
        self._table_ids: dict[str, int] = {}
        self.writes_accepted = 0
        self.writes_rejected = 0
        self.reads_served = 0

    def attach_driver(
        self,
        log,
        replica_wait,
        primary_flush,
        primary_wait,
        applier_rng: RngStream | None = None,
        apply_workers: int = 1,
    ) -> None:
        """Plug the replication driver in: the replicated ``log`` the
        applier tails (anything with ``entry(index)``), the replica
        pipeline's wait stage (None: asynchronous, no wait), the primary
        pipeline's flush and wait stages, and what the applier draws from
        (default: this server's stream) and runs with."""
        self._log = log
        self._replica_wait = replica_wait or self._async_wait
        self._primary_flush = primary_flush
        self._primary_wait = primary_wait
        self._applier_rng = applier_rng or self.rng
        self._apply_workers = apply_workers

    # -- the persona flip (§3.3): the driver decides when ---------------------------

    def enable_client_writes(self) -> None:
        self.role = ServerRole.PRIMARY
        self.read_only = False

    def disable_client_writes(self) -> None:
        self.role = ServerRole.REPLICA
        self.read_only = True

    def start_replica_runtime(self) -> None:
        """Assemble the replica persona: the applier pipeline and an applier
        over the driver's log. Online recovery (§3.3 step 5): the applier
        cursor comes from the last transaction committed in the engine."""
        pipeline = make_pipeline_for_server(
            self, self._relay_flush, self._replica_wait, name=f"{self.host.name}.applier-pipeline"
        )
        self.applier = Applier(
            host=self.host,
            engine=self.engine,
            entry_source=self.entry_source,
            pipeline=pipeline,
            timing=self.timing,
            rng=self._applier_rng,
            workers=self._apply_workers,
        )
        if self.sql_thread_enabled:
            self.applier.start(self.engine.last_committed_opid.index + 1)

    def stop_runtime(self) -> None:
        if self.pipeline is not None:
            self.pipeline.stop("role change")
        if self.applier is not None:
            self.applier.stop()
            self.applier = None

    def promote(self, catch_up_to: int, proceed=None):
        """Coroutine: §3.3 replica → primary. The applier commits the log
        through ``catch_up_to`` to the engine; then, unless ``proceed()``
        says the promotion went stale meanwhile, the replica runtime
        stops, the logs rewire relay → binlog, the primary pipeline starts
        and client writes are enabled. Returns whether it flipped."""
        applier = self.applier
        if applier is not None:
            applier.signal()
            yield applier.catch_up_to(catch_up_to)
        if proceed is not None and not proceed():
            return False
        self.stop_runtime()
        self.log_manager.rewire("binlog")
        make_pipeline_for_server(
            self,
            self._primary_flush,
            self._primary_wait,
            name=f"{self.host.name}.primary-pipeline",
        )
        self.enable_client_writes()
        return True

    def demote(self, reason: str) -> int:
        """§3.3 primary → replica, synchronously (every step is online):
        abort the transactions in flight, disable writes, rewire the logs
        binlog → relay and restart the replica runtime. Returns how many
        transactions rolled back."""
        aborted = self.abort_in_flight(reason)
        self.disable_client_writes()
        self.stop_runtime()
        self.log_manager.rewire("relay")
        self.start_replica_runtime()
        return aborted

    def entry_source(self, index: int):
        """The applier's feed: the transaction at ``index`` of the driver's log."""
        entry = self._log.entry(index)
        if entry is None:
            return None
        return Transaction.decode(entry.payload), entry.kind

    @staticmethod
    def _relay_flush(group: list[PipelineTxn]):
        """Replica flush stage (§3.5): the group goes to the applier's
        local log; OpIds came with the relay log, so only the fsync cost
        applies (charged by the pipeline)."""
        last = group[-1].opid
        assert last is not None
        return last

    def _async_wait(self, opid) -> SimFuture:
        future = SimFuture(self.host.loop, label=f"async:{opid}")
        future.resolve(opid)
        return future

    def stop_sql_thread(self) -> None:
        """STOP REPLICA SQL_THREAD: halt apply while the relay log keeps
        filling. In-flight apply groups are killed like MySQL's worker
        stop: they roll back (online) and re-apply after START. A
        primary has no SQL thread."""
        if self.role == ServerRole.PRIMARY:
            raise MySQLError(f"{self.host.name} is the primary; no SQL thread")
        self.sql_thread_enabled = False
        if self.applier is not None and self.applier.running:
            self.applier.stop()
        if self.pipeline is not None:
            self.pipeline.abort_all("sql thread stopped")

    def start_sql_thread(self) -> None:
        """START REPLICA SQL_THREAD: resume apply from the engine's last
        committed transaction (§3.3 step 5 positioning)."""
        self.sql_thread_enabled = True
        if self.applier is not None and not self.applier.running:
            self.applier.start(self.engine.last_committed_opid.index + 1)
            self.applier.signal()

    def abort_in_flight(self, reason: str) -> int:
        """§3.3 demotion step 1: roll back every transaction waiting in the
        commit pipeline (they are merely prepared — rollback is online)."""
        if self.pipeline is None:
            return 0
        # The pipeline's abort callback (rollback_pipeline_txn) rolls back
        # each victim's engine state as it is failed.
        victims = self.pipeline.abort_all(reason)
        return sum(1 for v in victims if v.engine_txn is not None)

    def rollback_pipeline_txn(self, txn: PipelineTxn) -> None:
        """Pipeline abort callback: roll back the engine side of a
        transaction whose commit was aborted (demotion, truncation)."""
        engine_txn = txn.engine_txn
        if engine_txn is not None and engine_txn.state in ("active", "prepared"):
            self.engine.rollback(engine_txn)

    # -- the client write path (§3.4) ------------------------------------------------

    def client_write(self, table: str, rows: dict):
        """Coroutine: execute one write transaction; returns its OpId (or
        None for the semi-sync driver). Raise ReadOnlyError on replicas
        and if demoted before the commit point, TransactionAborted if
        demoted mid-commit."""
        pipeline = self.pipeline
        if self.read_only or pipeline is None:
            self.writes_rejected += 1
            raise ReadOnlyError(f"{self.host.name} is read-only")
        xid = next(self._xids)
        engine_txn = self.engine.begin(xid)
        try:
            yield from self._acquire_locks(engine_txn, table, rows)
            for pk, row in rows.items():
                if row is None:
                    self.engine.delete_row(engine_txn, table, pk)
                else:
                    self.engine.write_row(engine_txn, table, pk, row)
            # Prepare in the connection thread: engine WAL markers etc.
            yield self.timing.prepare(self.rng)
            if self.pipeline is not pipeline:
                # Demoted while preparing: the pipeline now attached is a
                # replica's applier. The write was never logged.
                self.writes_rejected += 1
                raise ReadOnlyError(f"{self.host.name} was demoted before the commit point")
            self.engine.prepare(engine_txn)
            # GTID assigned at commit time (§3.4).
            gtid = self._next_gtid()
            engine_txn.gtid = gtid
            payload = self._build_payload(engine_txn, gtid, xid)
            pipeline_txn = PipelineTxn(
                payload=payload,
                engine_txn=engine_txn,
                done=SimFuture(self.host.loop, label="commit"),
            )
            opid = yield pipeline.submit(pipeline_txn)
        except Exception:
            if engine_txn.state in ("active", "prepared"):
                self.engine.rollback(engine_txn)
            raise
        self.writes_accepted += 1
        return opid

    def client_read(self, table: str, pk):
        """Coroutine: linearizable read of one row; returns
        ``(opid, row | None)``.

        Implemented as a read barrier: an *empty* marker transaction is
        pushed through the normal commit pipeline. The pipeline commits
        groups in FIFO order and only resolves the marker after its group
        engine-commits, so when the marker returns (a) this server was
        still the consensus leader at the marker's commit point and (b)
        every transaction committed before the marker is already applied
        to the local engine. Reading the row after that is linearizable:
        the read takes effect at the marker's commit instant.
        """
        opid = yield from self.client_write(table, {})
        self.reads_served += 1
        row = self.engine.table(table).get(pk)
        return opid, (dict(row) if row is not None else None)

    def _acquire_locks(self, engine_txn, table: str, rows: dict):
        for pk in rows:
            key = (table, pk)
            wait = SimFuture(self.host.loop, label="lock")
            acquired = self.engine.locks.try_acquire(
                key, engine_txn.xid, lambda w=wait: w.resolve_if_pending(None)
            )
            if not acquired:
                yield wait

    def _next_gtid(self) -> Gtid:
        # The counter lives on this host's disk, so a reimaged ex-primary
        # restarts it at 1, behind ids its earlier terms committed and its
        # engine (restored from a backup or an image) has executed. Never
        # hand those out again: replicas would skip them as re-deliveries.
        txn_id = max(
            self._meta["next_txn_id"],
            self.engine.executed_gtids.last_txn_id(self.server_uuid) + 1,
        )
        self._meta["next_txn_id"] = txn_id + 1
        return Gtid(self.server_uuid, txn_id)

    def _table_id(self, table: str) -> int:
        if table not in self._table_ids:
            self._table_ids[table] = len(self._table_ids) + 1
        return self._table_ids[table]

    def _build_payload(self, engine_txn, gtid: Gtid, xid: int) -> Transaction:
        """Render the in-memory binlog payload for the transaction (RBR
        full images, §3.4). The OpId is stamped later by Raft."""
        events = [
            GtidEvent(gtid.source_uuid, gtid.txn_id, None),
            QueryEvent("BEGIN"),
        ]
        tables_emitted: set[str] = set()
        for change in engine_txn.changes:
            if change.table not in tables_emitted:
                events.append(TableMapEvent(self._table_id(change.table), "db", change.table))
                tables_emitted.add(change.table)
            events.append(
                RowsEvent(
                    change.kind,
                    self._table_id(change.table),
                    ((change.before, change.after),),
                )
            )
        events.append(XidEvent(xid))
        return Transaction(events=tuple(events))

    # -- group engine commit (pipeline stage 3 behaviour) ---------------------------

    def engine_commit_group(self, group: list[PipelineTxn]) -> None:
        for txn in group:
            if txn.engine_txn is not None and txn.engine_txn.state == "prepared":
                txn.engine_txn.opid = txn.opid or txn.engine_txn.opid
                self.engine.commit(txn.engine_txn)

    # -- crash recovery ------------------------------------------------------------

    def recover_after_restart(self) -> dict[str, Any]:
        """Rebuild volatile structures from the disk after a crash: the
        engine rolls prepared transactions back (A.2 case 1), the log
        manager re-parses its files. The driver restarts the replica
        runtime (:meth:`start_replica_runtime`) once its log is reloaded."""
        self.reset_to_seeded_disk(persona="binlog")
        return {"rolled_back_xids": self.engine.recover()}

    def reset_to_seeded_disk(self, persona: str = "relay") -> None:
        """Rebuild volatile structures over the disk as it stands, rolling
        nothing back: after a snapshot install the seeded namespaces are a
        consistent committed image, and a rollback would wrongly touch
        them. ``persona`` applies to a log the disk does not hold yet."""
        self.engine = StorageEngine(
            self.host.disk.namespace("engine.tables"), self.host.disk.namespace("engine.meta")
        )
        self.log_manager = MySQLLogManager(
            self.host.disk.namespace("mysqllog"), persona=persona
        )
        self.pipeline = None
        self.applier = None
        self.role = ServerRole.REPLICA
        self.read_only = True
        self._table_ids.clear()

    # -- introspection ---------------------------------------------------------------

    def checksum(self) -> int:
        return self.engine.checksum()

    def status(self) -> dict[str, Any]:
        return {
            "name": self.host.name,
            "role": self.role.value,
            "read_only": self.read_only,
            "executed_gtids": str(self.engine.executed_gtids),
            "last_committed_opid": self.engine.last_committed_opid,
            "log_persona": self.log_manager.persona,
            "log_files": len(self.log_manager.index),
        }


class MySQLMember:
    """A database member's host service: one :class:`MySQLServer` under a
    replication driver. Both stacks' members share this surface."""

    host: Host
    mysql: MySQLServer

    @property
    def applier(self) -> Applier | None:
        """The running applier; None on a primary."""
        return self.mysql.applier

    def writable_primary(self) -> bool:
        """Whether this member takes client writes now."""
        return self.mysql.role == ServerRole.PRIMARY and not self.mysql.read_only

    @property
    def primary_term(self) -> int:
        """The term this member's writes are stamped with (the OpId's
        first half). Of two writable primaries, the newer term's is the
        primary; the other has yet to learn it was deposed."""
        raise NotImplementedError

    def submit_write(self, table: str, rows: dict):
        """Run one client write transaction; returns its Process."""
        return self.host.spawn(
            self.mysql.client_write(table, rows), label=f"{self.host.name}:write"
        )


def make_pipeline_for_server(
    server: MySQLServer,
    flush_fn,
    wait_fn,
    name: str = "pipeline",
) -> CommitPipeline:
    """Assemble the standard pipeline: injected flush/wait stages plus the
    server's engine-commit stage and timing profile."""
    pipeline = CommitPipeline(
        host=server.host,
        flush_fn=flush_fn,
        wait_fn=wait_fn,
        # Looked up at commit time, not captured here: a class-level
        # patch of engine_commit_group (tracing) must reach pipelines
        # that already exist, and removing it must leave nothing behind.
        commit_fn=lambda group: server.engine_commit_group(group),
        flush_latency=lambda group_size: (
            server.timing.binlog_fsync(server.rng)
            + sum(server.timing.raft_overhead(server.rng) for _ in range(group_size))
        ),
        commit_latency=lambda: server.timing.engine_commit(server.rng),
        abort_fn=server.rollback_pipeline_txn,
        name=name,
    )
    server.pipeline = pipeline
    return pipeline

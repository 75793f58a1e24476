"""The simulated MySQL server.

Owns the storage engine, the replication logs, GTID allocation, and the
client write path (§3.4): prepare in the connection's thread, assign the
GTID at commit time, then hand the transaction to the commit pipeline
whose stage behaviours are supplied by the active replication driver
(the Raft plugin, or the semi-sync driver for the baseline).

Role changes never happen here on the server's own initiative — they are
*orchestrated* from outside (by Raft callbacks or by failover
automation), in line with the paper's design.
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
        self._xids = itertools.count(1)
        self._table_ids: dict[str, int] = {}
        self.writes_accepted = 0
        self.writes_rejected = 0
        self.reads_served = 0

    # -- wiring (done by the replication driver) --------------------------------

    def attach_pipeline(self, pipeline: CommitPipeline) -> None:
        self.pipeline = pipeline

    def attach_applier(self, applier: Applier) -> None:
        self.applier = applier

    # -- role orchestration primitives (called by drivers, §3.3) ------------------

    def enable_client_writes(self) -> None:
        self.role = ServerRole.PRIMARY
        self.read_only = False

    def disable_client_writes(self) -> None:
        self.role = ServerRole.REPLICA
        self.read_only = True

    def rewire_logs(self, persona: str) -> None:
        self.log_manager.rewire(persona)

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
        """Rebuild volatile structures from the disk after a crash.

        The engine rolls prepared transactions back (A.2 case 1); the log
        manager re-parses its files. Pipeline and applier are rebuilt by
        the replication driver that owns them.
        """
        self.engine = StorageEngine(
            self.host.disk.namespace("engine.tables"), self.host.disk.namespace("engine.meta")
        )
        rolled_back = self.engine.recover()
        self.log_manager = MySQLLogManager(self.host.disk.namespace("mysqllog"))
        self.pipeline = None
        self.applier = None
        self.role = ServerRole.REPLICA
        self.read_only = True
        self._table_ids.clear()
        return {"rolled_back_xids": rolled_back}

    def reset_to_seeded_disk(self, persona: str = "relay") -> None:
        """Rebuild volatile structures over a freshly *seeded* disk
        (snapshot install): like :meth:`recover_after_restart`, but the
        seeded namespaces are a consistent committed image — there are no
        prepared transactions to roll back, and rolling back would wrongly
        touch the seeded state.
        """
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
    server.attach_pipeline(pipeline)
    return pipeline

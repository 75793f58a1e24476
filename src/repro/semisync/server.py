"""Semi-sync data-plane members: the primary/replica server and the acker.

The replicated log reuses the binlog machinery, with entries stamped
``OpId(generation, seq)``: the *generation* increments on every promotion
(our rendition of the pseudo-GTID/positioning tricks the prior setup
needed), ``seq`` is the global transaction counter. Generation conflicts
at the same seq are how a replica detects a diverged (old-primary) tail
and truncates it — and how an old primary that committed acked-but-lost
transactions gets flagged for rebuild, the classic semi-sync edge case
the paper calls out.
"""

from __future__ import annotations

from typing import Any

from repro.errors import MySQLError
from repro.mysql.events import Transaction
from repro.mysql.log_manager import MySQLLogManager
from repro.mysql.pipeline import PipelineTxn
from repro.mysql.server import MySQLMember, MySQLServer, ServerRole
from repro.mysql.timing import TimingProfile
from repro.plugin.binlog_storage import BinlogRaftLogStorage
from repro.raft.log_storage import ENTRY_KIND_DATA, LogEntry
from repro.raft.types import OpId
from repro.semisync.messages import (
    ControlReply,
    ControlRequest,
    HealthPing,
    HealthPong,
    ResendRequest,
    ShipAck,
    ShipEntries,
)
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.rng import RngStream

MAX_ENTRIES_PER_SHIP = 64


class _ShipLog:
    """Shared receive-side logic: append shipped entries with gap
    detection and generation-conflict truncation."""

    def __init__(self, storage: BinlogRaftLogStorage) -> None:
        self.storage = storage

    def receive(self, msg: ShipEntries) -> tuple[int, bool]:
        """Apply a ship batch. Returns (new last seq, appended_anything).
        Raises MySQLError("gap") when a resend is needed."""
        last = self.storage.last_opid()
        if msg.prev_seq > last.index:
            raise MySQLError("gap")
        appended = False
        for seq, payload in msg.entries:
            if seq <= self.storage.last_opid().index:
                existing_opid = self.storage.opid_at(seq)
                incoming_opid = Transaction.peek_opid(payload)
                if existing_opid == incoming_opid:
                    continue  # duplicate resend
                if existing_opid is not None and incoming_opid.term < existing_opid.term:
                    return self.storage.last_opid().index, appended  # stale shipper
                self.storage.truncate_from(seq)  # diverged tail loses
            txn = Transaction.decode(payload)
            entry = LogEntry(txn.opid, payload, ENTRY_KIND_DATA)
            self.storage.append([entry])
            appended = True
        return self.storage.last_opid().index, appended


class SemiSyncAcker:
    """A logtailer in the prior setup: tails the primary's binlog and
    acknowledges semi-sync commits. No storage engine."""

    def __init__(self, host: Host, timing: TimingProfile, rng: RngStream) -> None:
        self.host = host
        self.log_manager = MySQLLogManager(host.disk.namespace("mysqllog"), persona="relay")
        self.storage = BinlogRaftLogStorage(self.log_manager)
        self.timing = timing
        self.rng = rng.child(f"acker/{host.name}")
        self._ship_log = _ShipLog(self.storage)
        self._upstream: str | None = None

    def handle_message(self, src: str, message: Any) -> None:
        if isinstance(message, ShipEntries):
            self._handle_ship(src, message)
        elif isinstance(message, ControlRequest):
            self._handle_control(src, message)
        elif isinstance(message, HealthPing):
            self.host.send(src, HealthPong(message.probe_id, self.host.name))

    def _handle_ship(self, src: str, msg: ShipEntries) -> None:
        self._upstream = src
        try:
            last_seq, appended = self._ship_log.receive(msg)
        except MySQLError:
            self.host.send(
                src, ResendRequest(self.storage.last_opid().index + 1, self.host.name)
            )
            return
        delay = self.timing.binlog_fsync(self.rng) if appended else 0.0
        self.host.call_after(
            delay,
            lambda: self.host.alive
            and self.host.send(src, ShipAck(msg.generation, last_seq, self.host.name)),
        )

    def _handle_control(self, src: str, req: ControlRequest) -> None:
        if req.command == "report_position":
            self.host.send(
                src,
                ControlReply(
                    req.request_id,
                    True,
                    {"last": self.storage.last_opid(), "kind": "acker"},
                ),
            )
        elif req.command == "serve_tail":
            # Ship our tail to a recovering member (failover reconciliation).
            to = req.args["to"]
            from_seq = req.args["from_seq"]
            entries = []
            index = from_seq
            while len(entries) < MAX_ENTRIES_PER_SHIP:
                entry = self.storage.entry(index)
                if entry is None:
                    break
                entries.append((index, entry.payload))
                index += 1
            generation = self.storage.last_opid().term
            self.host.send(
                to, ShipEntries(generation, from_seq - 1, tuple(entries), self.host.name)
            )
            self.host.send(src, ControlReply(req.request_id, True, {"shipped": len(entries)}))
        else:
            self.host.send(src, ControlReply(req.request_id, False, error="unsupported"))

    def on_crash(self) -> None:
        pass

    def on_restart(self) -> None:
        self.log_manager = MySQLLogManager(self.host.disk.namespace("mysqllog"))
        self.storage.reload(self.log_manager)


class SemiSyncServer(MySQLMember):
    """A MySQL instance under the prior setup (primary or replica)."""

    def __init__(
        self,
        host: Host,
        timing: TimingProfile,
        rng: RngStream,
        failover_capable: bool = True,
    ) -> None:
        self.host = host
        self.timing = timing
        self.rng = rng.child(f"semisync/{host.name}")
        self.failover_capable = failover_capable
        self.acker_names: list[str] = []
        self.upstream: str | None = None
        self._start(MySQLServer(host, timing, rng))

    def _start(self, mysql: MySQLServer) -> None:
        """Run over ``mysql`` as a replica with no shipping state: at
        construction, and on a rebuild over a wiped disk."""
        self.mysql = mysql
        self.storage = BinlogRaftLogStorage(mysql.log_manager)
        self._ship_log = _ShipLog(self.storage)
        self._meta = self.host.disk.namespace("semisync.meta")
        self._meta.setdefault("generation", 0)
        self._reset_shipping()
        # The replica's wait stage is None: async replication, no wait.
        # The applier draws from this driver's stream, not the server's.
        mysql.attach_driver(
            self.storage, None, self._primary_flush, self._primary_wait, applier_rng=self.rng
        )
        mysql.start_replica_runtime()

    def _reset_shipping(self) -> None:
        self._acked: dict[str, int] = {}
        self._ack_waiters: list[tuple[int, SimFuture]] = []
        self.ship_targets: list[str] = []

    # -- role wiring --------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._meta["generation"]

    @property
    def primary_term(self) -> int:
        return self.generation

    def become_primary(
        self, generation: int, ship_targets: list[str], acker_names: list[str]
    ):
        """Coroutine: finish applying the local log, then switch to the
        primary persona and start accepting writes."""
        yield from self.mysql.promote(self.storage.last_opid().index)
        self._meta["generation"] = generation
        self.ship_targets = [t for t in ship_targets if t != self.host.name]
        self.acker_names = list(acker_names)
        self._acked = {}

    def become_replica(self, upstream: str | None) -> None:
        self.upstream = upstream
        self.mysql.demote("demoted by automation")

    # -- primary data path ----------------------------------------------------------

    def _primary_flush(self, group: list[PipelineTxn]) -> OpId:
        entries_wire = []
        prev_seq = self.storage.last_opid().index
        for txn in group:
            seq = self.storage.last_opid().index + 1
            opid = OpId(self.generation, seq)
            payload = txn.payload.with_opid(opid).encode()
            self.storage.append([LogEntry(opid, payload, ENTRY_KIND_DATA)])
            txn.opid = opid
            if txn.engine_txn is not None:
                txn.engine_txn.opid = opid
            entries_wire.append((seq, payload))
        ship = ShipEntries(self.generation, prev_seq, tuple(entries_wire), self.host.name)
        for target in self.ship_targets:
            self.host.send(target, ship)
        return OpId(self.generation, entries_wire[-1][0])

    def _primary_wait(self, opid: OpId) -> SimFuture:
        """Semi-sync: one acker acknowledgement suffices."""
        future = SimFuture(self.host.loop, label=f"semisync-ack:{opid}")
        if any(self._acked.get(a, 0) >= opid.index for a in self.acker_names):
            future.resolve(opid)
        else:
            self._ack_waiters.append((opid.index, future))
        return future

    def _handle_ack(self, msg: ShipAck) -> None:
        if msg.acker not in self.acker_names:
            return
        self._acked[msg.acker] = max(self._acked.get(msg.acker, 0), msg.acked_seq)
        best = max(self._acked.values(), default=0)
        matured = [(s, f) for s, f in self._ack_waiters if s <= best]
        self._ack_waiters = [(s, f) for s, f in self._ack_waiters if s > best]
        for seq, future in matured:
            future.resolve_if_pending(OpId(self.generation, seq))

    def _handle_resend(self, msg: ResendRequest) -> None:
        index = msg.from_seq
        entries = []
        while len(entries) < MAX_ENTRIES_PER_SHIP:
            entry = self.storage.entry(index)
            if entry is None:
                break
            entries.append((index, entry.payload))
            index += 1
        if entries:
            self.host.send(
                msg.requester,
                ShipEntries(self.generation, msg.from_seq - 1, tuple(entries), self.host.name),
            )

    # -- replica data path -------------------------------------------------------------

    def _handle_ship(self, src: str, msg: ShipEntries) -> None:
        if self.mysql.role == ServerRole.PRIMARY:
            return  # a stale shipper; automation will rebuild one of us
        try:
            _, appended = self._ship_log.receive(msg)
        except MySQLError:
            self.host.send(
                src, ResendRequest(self.storage.last_opid().index + 1, self.host.name)
            )
            return
        applier = self.mysql.applier
        if appended and applier is not None:
            applier.signal()
        # Long tail behind? Proactively pull the rest.
        if msg.last_seq() > self.storage.last_opid().index:
            self.host.send(
                src, ResendRequest(self.storage.last_opid().index + 1, self.host.name)
            )

    # -- control plane -------------------------------------------------------------------

    def _handle_control(self, src: str, req: ControlRequest) -> None:
        command = req.command
        if command == "report_position":
            self.host.send(
                src,
                ControlReply(
                    req.request_id,
                    True,
                    {
                        "last": self.storage.last_opid(),
                        "applied": self.mysql.engine.last_committed_opid,
                        "role": self.mysql.role.value,
                        "failover_capable": self.failover_capable,
                        "kind": "mysql",
                    },
                ),
            )
        elif command == "set_read_only":
            self.mysql.read_only = True
            self.host.send(src, ControlReply(req.request_id, True))
        elif command == "promote":

            def run():
                yield from self.become_primary(
                    req.args["generation"], req.args["ship_targets"], req.args["ackers"]
                )
                self.host.send(src, ControlReply(req.request_id, True))

            self.host.spawn(run(), label=f"{self.host.name}:promote")
        elif command == "demote_to_replica":
            self.become_replica(req.args.get("upstream"))
            self.host.send(src, ControlReply(req.request_id, True))
        elif command == "repoint":
            self.upstream = req.args["primary"]
            self.host.send(src, ControlReply(req.request_id, True))
            # Pull anything we're missing from the new primary.
            self.host.send(
                self.upstream,
                ResendRequest(self.storage.last_opid().index + 1, self.host.name),
            )
        elif command == "add_targets":
            for target in req.args["targets"]:
                if target not in self.ship_targets and target != self.host.name:
                    self.ship_targets.append(target)
            self.host.send(src, ControlReply(req.request_id, True))
        elif command == "rebuild":
            # The prior setup's answer to a possibly-diverged old primary:
            # wipe the host and re-seed everything from the new primary.
            # The fresh server's stream derives from this driver's, so a
            # rebuilt member draws apart from its first incarnation.
            upstream = req.args["primary"]
            self.mysql.stop_runtime()
            self.host.disk.wipe()
            self.upstream = upstream
            self._start(MySQLServer(self.host, self.timing, self.rng))
            self.host.send(upstream, ResendRequest(1, self.host.name))
            self.host.send(src, ControlReply(req.request_id, True))
        elif command == "fetch_tail":
            # Ask an acker to ship us what we're missing (failover
            # reconciliation of semi-sync-acked transactions).
            self.host.send(
                req.args["acker"],
                ControlRequest(
                    req.request_id,
                    "serve_tail",
                    {"to": self.host.name, "from_seq": self.storage.last_opid().index + 1},
                ),
            )
            self.host.send(src, ControlReply(req.request_id, True))
        else:
            self.host.send(src, ControlReply(req.request_id, False, error="unsupported"))

    # -- dispatch ---------------------------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        if isinstance(message, ShipEntries):
            self._handle_ship(src, message)
        elif isinstance(message, ShipAck):
            self._handle_ack(message)
        elif isinstance(message, ResendRequest):
            self._handle_resend(message)
        elif isinstance(message, ControlRequest):
            self._handle_control(src, message)
        elif isinstance(message, HealthPing):
            self.host.send(src, HealthPong(message.probe_id, self.host.name))
        elif isinstance(message, ControlReply):
            pass  # acker's serve_tail confirmation; nothing to do
        elif isinstance(message, HealthPong):
            pass

    def on_crash(self) -> None:
        pass

    def on_restart(self) -> None:
        """Restart safe: come back as a read-only replica and wait for
        automation to repoint or rebuild us (the prior setup's behaviour)."""
        self.mysql.recover_after_restart()
        self.storage.reload(self.mysql.log_manager)
        self._reset_shipping()
        self.mysql.start_replica_runtime()

    def submit_read(self, table: str, pk):
        """Run one read-your-writes read on the primary (the prior setup's
        strongest option: a commit-pipeline barrier, no quorum confirm —
        which is why MyRaft's §6 read comparison exists). Returns a
        Process resolving to ``(opid, row | None)``."""
        return self.host.spawn(
            self.mysql.client_read(table, pk), label=f"{self.host.name}:read"
        )

    def status(self) -> dict[str, Any]:
        return {
            **self.mysql.status(),
            "generation": self.generation,
            "last_seq": self.storage.last_opid().index,
            "failover_capable": self.failover_capable,
        }

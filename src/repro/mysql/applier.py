"""The applier thread (§3.5), serial or multi-threaded (MTS).

On a replica, the Raft plugin writes incoming transactions to the
relay-log and signals the applier. The applier reads each transaction (a
binary log payload of RBR events), executes it against the engine
(begin → writes → prepare), and pushes it into the same three-stage
commit pipeline the primary uses; stage 2 waits until the leader's commit
marker covers the transaction, stage 3 commits to the engine.

With ``workers > 1`` the applier becomes MySQL's multi-threaded slave: a
coordinator dispatches relay-log transactions to worker coroutines under
the LOGICAL_CLOCK dependency rule — a transaction starts only once the
engine has committed every sequence number up to its ``last_committed``
commit parent (stamped by the primary's flush stage). Workers prepare in
parallel; the coordinator funnels prepared transactions into the commit
pipeline strictly in relay-log order, so engine commit order — and with
it GTID semantics, ``catch_up_to``, and recovery cases A.2(1–3) — is
byte-identical to serial apply.

The applier is also the workhorse of promotion step 2: ``catch_up_to``
resolves once everything up to the no-op entry is committed in the
engine (§3.3).

Cursor positioning follows the paper's online recovery protocol: the
starting point is derived from the last transaction committed in the
engine (§3.3 step 5).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable

from repro.errors import MySQLError
from repro.mysql.engine import StorageEngine
from repro.mysql.events import GtidEvent, RowsEvent, TableMapEvent, Transaction, XidEvent
from repro.mysql.gtid import Gtid
from repro.mysql.pipeline import CommitPipeline, PipelineTxn
from repro.mysql.timing import TimingProfile
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.queues import AsyncQueue
from repro.sim.rng import RngStream

# entry_source(index) -> (Transaction, kind) | None when not yet available
EntrySource = Callable[[int], "tuple[Transaction, str] | None"]


class Applier:
    """Replica-side apply loop over the relay log."""

    def __init__(
        self,
        host: Host,
        engine: StorageEngine,
        entry_source: EntrySource,
        pipeline: CommitPipeline,
        timing: TimingProfile,
        rng: RngStream,
        workers: int = 1,
    ) -> None:
        self.host = host
        self.engine = engine
        self._entry_source = entry_source
        self.pipeline = pipeline
        self.timing = timing
        self.workers = max(1, int(workers))
        self.rng = rng.child("applier")
        # Per-worker RNG children: spawning workers must not perturb the
        # serial stream's draws (child derivation consumes nothing).
        self._worker_rngs = [self.rng.child(f"worker{i}") for i in range(self.workers)]
        self.cursor = 1  # next raft index to apply
        self.running = False
        self._wakeup: SimFuture | None = None
        self._process = None
        # Engine transaction currently being built inside _execute. Owned
        # by the applier only until it is wrapped in a PipelineTxn (the
        # pipeline's abort_fn rolls it back from then on); stop() must
        # roll it back or a later incarnation replaying the same GTID
        # collides with the leaked xid ("xid already active").
        self._building = None
        self._catchup_waiters: list[tuple[int, SimFuture]] = []
        # Done-future of the newest transaction this coordinator submitted
        # to the pipeline itself (serial loop and the MTS serial fallback).
        self._last_submitted: SimFuture | None = None
        self.applied = 0
        self.skipped_duplicates = 0
        self.peak_inflight = 0
        # -- MTS scheduler state (workers > 1) -------------------------------
        self._worker_procs: list = []
        self._inboxes: list[AsyncQueue] = []
        self._idle: list[int] = []
        self._worker_free: SimFuture | None = None
        # raft index → engine txn still owned by the applier (begun but not
        # yet handed to the pipeline); stop() rolls these back.
        self._owned: dict[int, object] = {}
        # raft index → prepared PipelineTxn awaiting in-order submission.
        self._ready: dict[int, PipelineTxn] = {}
        # Indices with nothing to submit (duplicate GTIDs skipped while
        # earlier work was still in flight).
        self._skip: set[int] = set()
        self._submit_cursor = 1  # next raft index to enter the pipeline
        # FIFO of (raft index, sequence_number) dispatched but not yet
        # engine-committed; its head bounds the commit floor.
        self._pending: deque = deque()
        self._domain: int | None = None  # OpId term the clock belongs to
        self._last_seq = 0  # newest sequence dispatched/skipped in domain
        self._admission: tuple[int, SimFuture] | None = None
        self._drain_waiter: SimFuture | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, cursor: int) -> None:
        """Start applying from raft index ``cursor`` (§3.3 step 5)."""
        if self.running:
            raise MySQLError("applier already running")
        self.cursor = cursor
        self.running = True
        if self.workers > 1:
            self._reset_scheduler(cursor)
            for wid in range(self.workers):
                inbox = AsyncQueue(self.host.loop, f"{self.host.name}.applier.w{wid}")
                self._inboxes.append(inbox)
                self._worker_procs.append(
                    self.host.spawn(
                        self._worker_loop(wid, inbox),
                        label=f"{self.host.name}:applier-w{wid}",
                    )
                )
            self._idle = list(range(self.workers))
            self._process = self.host.spawn(
                self._run_parallel(), label=f"{self.host.name}:applier"
            )
        else:
            self._process = self.host.spawn(self._run(), label=f"{self.host.name}:applier")

    def stop(self) -> None:
        self.running = False
        if self._wakeup is not None:
            self._wakeup.resolve_if_pending(None)
            self._wakeup = None
        if self._process is not None:
            self._process.kill()
            self._process = None
        for proc in self._worker_procs:
            proc.kill()
        self._worker_procs = []
        self._inboxes = []
        self._idle = []
        if self._building is not None:
            self.engine.rollback(self._building)
            self._building = None
        # Roll back every in-flight worker transaction (mid-group stop):
        # anything begun but not yet submitted to the pipeline is ours.
        for engine_txn in self._owned.values():
            self.engine.rollback(engine_txn)
        self._owned.clear()
        self._ready.clear()
        self._skip.clear()
        self._pending.clear()
        self._worker_free = None
        self._admission = None
        self._drain_waiter = None

    def signal(self) -> None:
        """New relay-log entries are available (called by the plugin)."""
        if self._wakeup is not None:
            self._wakeup.resolve_if_pending(None)
            self._wakeup = None

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "applied": self.applied,
            "skipped_duplicates": self.skipped_duplicates,
            "peak_inflight": self.peak_inflight,
        }

    # -- promotion support (§3.3 step 2) ----------------------------------------

    def catch_up_to(self, index: int) -> SimFuture:
        """Resolves once every data transaction at/below ``index`` has been
        engine-committed and the cursor has passed ``index``."""
        future = SimFuture(self.host.loop, label=f"catchup:{index}")
        self._catchup_waiters.append((index, future))
        self._check_catchup()
        # Transactions submitted before this waiter existed carry no
        # completion hook. The pipeline commits in FIFO order, so the
        # newest of them finishing is the first moment it can be empty.
        last = self._last_submitted
        if self._catchup_waiters and last is not None and not last.done():
            last.add_done_callback(self._on_submitted_done)
        return future

    def _submit(self, pipeline_txn: PipelineTxn) -> None:
        """Hand a prepared transaction to the pipeline. Its completion is
        watched only while somebody waits for catch-up: with no waiter the
        re-check would be a loop event that does nothing."""
        done = self.pipeline.submit(pipeline_txn)
        self._last_submitted = done
        if self._catchup_waiters:
            done.add_done_callback(self._on_submitted_done)

    def _on_submitted_done(self, _done: SimFuture) -> None:
        self._check_catchup()

    def _check_catchup(self) -> None:
        if not self._catchup_waiters:
            return
        # ``cursor`` advances the moment an entry is *read*, but the entry
        # only becomes visible to the depth/_pending checks once it is
        # executing (_building) or dispatched (_pending). In the windows
        # between — the serial loop's timing yields, the MTS coordinator's
        # barrier/admission/worker waits — the coordinator still holds the
        # transaction in its hands, so the submit cursor lagging the read
        # cursor means "not drained".
        drained = (
            self.pipeline.depth == 0
            and not self._pending
            and self._building is None
        )
        if self.workers > 1:
            drained = drained and self._submit_cursor == self.cursor
        remaining = []
        for index, future in self._catchup_waiters:
            if self.cursor > index and drained:
                future.resolve_if_pending(None)
            else:
                remaining.append((index, future))
        self._catchup_waiters = remaining

    # -- the serial loop ---------------------------------------------------------

    def _run(self):
        while self.running:
            item = self._entry_source(self.cursor)
            if item is None:
                self._check_catchup()
                self._wakeup = SimFuture(self.host.loop, label="applier.wakeup")
                yield self._wakeup
                continue
            txn, kind = item
            self.cursor += 1
            if kind != "data":
                # no-op / config / rotate: nothing to execute in the engine.
                self._check_catchup()
                continue
            pipeline_txn = yield from self._execute(txn)
            if pipeline_txn is not None:
                self._submit(pipeline_txn)
            self._check_catchup()

    def _execute(self, txn: Transaction):
        """Apply one transaction's events against the engine (RBR apply:
        the before/after images make this efficient, §3.5)."""
        gtid_event = txn.gtid_event
        if gtid_event is None:
            raise MySQLError("applier asked to execute a non-data transaction")
        gtid = Gtid(gtid_event.source_uuid, gtid_event.txn_id)
        if gtid in self.engine.executed_gtids:
            # Re-delivered after recovery (A.2 case 3): already committed.
            self.skipped_duplicates += 1
            return None
        engine_txn = self.engine.begin(self._applier_xid(gtid_event))
        self._building = engine_txn
        engine_txn.gtid = gtid
        engine_txn.opid = gtid_event.opid
        yield from self._apply_events(engine_txn, txn, self.rng)
        self.engine.prepare(engine_txn)
        self.applied += 1
        # No yield between here and pipeline.submit in _run, so ownership
        # transfers to the pipeline atomically (a kill cannot interpose).
        self._building = None
        return PipelineTxn(
            payload=txn,
            engine_txn=engine_txn,
            done=SimFuture(self.host.loop, label="apply"),
            opid=gtid_event.opid,
        )

    # -- the MTS coordinator (workers > 1) ----------------------------------------

    def _reset_scheduler(self, cursor: int) -> None:
        self._worker_procs = []
        self._inboxes = []
        self._idle = []
        self._worker_free = None
        self._owned = {}
        self._ready = {}
        self._skip = set()
        self._submit_cursor = cursor
        self._pending = deque()
        self._domain = None
        self._last_seq = 0
        self._admission = None
        self._drain_waiter = None

    @property
    def _commit_floor(self) -> int:
        """Newest sequence number S such that every sequence ≤ S in the
        current domain is engine-committed (or skipped as a duplicate).
        Sequences are dispatched in relay-log = sequence order and commit
        through the FIFO pipeline, so the head of ``_pending`` bounds the
        floor exactly."""
        if self._pending:
            return self._pending[0][1] - 1
        return self._last_seq

    def _run_parallel(self):
        while self.running:
            item = self._entry_source(self.cursor)
            if item is None:
                self._check_catchup()
                self._wakeup = SimFuture(self.host.loop, label="applier.wakeup")
                yield self._wakeup
                continue
            txn, kind = item
            index = self.cursor
            self.cursor += 1
            if kind != "data":
                # no-op / config / rotate: drain so anything the control
                # entry implies (e.g. a membership change) observes a
                # fully-applied engine, then pass the slot through.
                yield from self._barrier()
                self._submit_cursor = index + 1
                self._check_catchup()
                continue
            gtid_event = txn.gtid_event
            if gtid_event is None:
                raise MySQLError("applier asked to execute a non-data transaction")
            seq = gtid_event.sequence_number
            opid = gtid_event.opid
            stamped = seq > 0 and opid is not None
            if stamped and opid.term != self._domain:
                # New leadership: its logical clock restarted at zero, so
                # sequence numbers across the boundary are incomparable.
                # Drain, then adopt the new domain. Sequences below the
                # first one seen belong to lower log indices — already in
                # the engine when the cursor starts past them (§3.3
                # step 5) — so the floor starts just under it.
                yield from self._barrier()
                self._domain = opid.term
                self._last_seq = seq - 1
            gtid = Gtid(gtid_event.source_uuid, gtid_event.txn_id)
            if gtid in self.engine.executed_gtids:
                # Re-delivered after recovery (A.2 case 3): already
                # committed. Its sequence still advances the floor — later
                # transactions may name it as their commit parent.
                self.skipped_duplicates += 1
                if stamped:
                    self._last_seq = max(self._last_seq, seq)
                self._pass_index(index)
                self._check_catchup()
                continue
            if not stamped:
                # Pre-logical-clock transaction (e.g. written by the
                # semi-sync setup before the raft cutover): no dependency
                # metadata, fall back to serial apply for this one.
                yield from self._barrier()
                pipeline_txn = yield from self._execute(txn)
                self._submit_cursor = index + 1
                if pipeline_txn is not None:
                    self._submit(pipeline_txn)
                self._check_catchup()
                continue
            # LOGICAL_CLOCK admission: start only once the commit parent
            # is engine-committed on this replica.
            while gtid_event.last_committed > self._commit_floor:
                future = SimFuture(self.host.loop, label=f"applier.admit:{seq}")
                self._admission = (gtid_event.last_committed, future)
                yield future
            wid = yield from self._free_worker()
            self._pending.append((index, seq))
            self._last_seq = max(self._last_seq, seq)
            if len(self._pending) > self.peak_inflight:
                self.peak_inflight = len(self._pending)
            self._inboxes[wid].put((index, txn, gtid_event))

    def _worker_loop(self, wid: int, inbox: AsyncQueue):
        rng = self._worker_rngs[wid]
        while self.running:
            index, txn, gtid_event = yield inbox.get()
            engine_txn = self.engine.begin(self._applier_xid(gtid_event))
            self._owned[index] = engine_txn
            engine_txn.gtid = Gtid(gtid_event.source_uuid, gtid_event.txn_id)
            engine_txn.opid = gtid_event.opid
            yield from self._apply_events(engine_txn, txn, rng)
            self.engine.prepare(engine_txn)
            self.applied += 1
            ptxn = PipelineTxn(
                payload=txn,
                engine_txn=engine_txn,
                done=SimFuture(self.host.loop, label="apply"),
                opid=gtid_event.opid,
            )
            ptxn.done.add_done_callback(lambda f, i=index: self._on_committed(i, f))
            self._ready[index] = ptxn
            # No yield from here through _drain_ready: pipeline submission
            # (= ownership transfer out of _owned) is atomic wrt kills.
            self._release_worker(wid)
            self._drain_ready()

    def _drain_ready(self) -> None:
        """Submit prepared transactions to the pipeline strictly in
        relay-log order; engine commit order is therefore identical to
        serial apply."""
        while True:
            if self._submit_cursor in self._skip:
                self._skip.discard(self._submit_cursor)
                self._submit_cursor += 1
                continue
            ptxn = self._ready.pop(self._submit_cursor, None)
            if ptxn is None:
                return
            self._owned.pop(self._submit_cursor, None)
            self._submit_cursor += 1
            self.pipeline.submit(ptxn)

    def _pass_index(self, index: int) -> None:
        """Mark ``index`` as having nothing to submit (duplicate skip)."""
        if index == self._submit_cursor:
            self._submit_cursor += 1
            self._drain_ready()
        else:
            self._skip.add(index)

    def _on_committed(self, index: int, future: SimFuture) -> None:
        """A dispatched transaction left the pipeline (engine-committed,
        or aborted — e.g. its entry was truncated; either way it will
        never commit, so it stops gating the floor)."""
        if self._pending and self._pending[0][0] == index:
            self._pending.popleft()
        elif self._pending:
            self._pending = deque(p for p in self._pending if p[0] != index)
        self._maybe_release()
        self._check_catchup()

    def _maybe_release(self) -> None:
        if self._admission is not None:
            needed, future = self._admission
            if needed <= self._commit_floor:
                self._admission = None
                future.resolve_if_pending(None)
        if self._drain_waiter is not None and not self._pending:
            waiter = self._drain_waiter
            self._drain_waiter = None
            waiter.resolve_if_pending(None)

    def _barrier(self):
        """Block the coordinator until every dispatched transaction has
        left the pipeline (the MTS group boundary / STOP REPLICA drain)."""
        while self._pending:
            self._drain_waiter = SimFuture(self.host.loop, label="applier.drain")
            yield self._drain_waiter

    def _free_worker(self):
        while not self._idle:
            self._worker_free = SimFuture(self.host.loop, label="applier.worker-free")
            yield self._worker_free
        self._idle.sort()
        return self._idle.pop(0)

    def _release_worker(self, wid: int) -> None:
        self._idle.append(wid)
        if self._worker_free is not None:
            future = self._worker_free
            self._worker_free = None
            future.resolve_if_pending(None)

    # -- shared row apply ---------------------------------------------------------

    def _apply_events(self, engine_txn, txn: Transaction, rng: RngStream):
        """Charge every event's apply cost (drawn in event order, one
        draw per event through the Xid), suspend once until the last
        event would have finished, then write the rows. The rows land in
        an engine transaction nothing else can see before ``prepare``, so
        when within that window they are written is unobservable."""
        now = finish = self.host.loop.now
        events = txn.events[1:]
        for event in events:
            finish += self.timing.applier_event(rng)
            if isinstance(event, XidEvent):
                break
        # Accumulated on the absolute time, as the clock would over one
        # sleep per event; the difference is exact once ``now`` exceeds
        # the total cost (Sterbenz), so ``now + delay == finish``.
        yield finish - now
        table_names: dict[int, str] = {}
        for event in events:
            if isinstance(event, TableMapEvent):
                table_names[event.table_id] = event.table
            elif isinstance(event, RowsEvent):
                self._apply_rows(engine_txn, table_names, event)
            elif isinstance(event, XidEvent):
                break

    def _apply_rows(self, engine_txn, table_names: dict[int, str], event: RowsEvent) -> None:
        table = table_names.get(event.table_id)
        if table is None:
            raise MySQLError(f"rows event for unmapped table id {event.table_id}")
        for before, after in event.rows:
            pk = self._primary_key(before, after)
            if after is None:
                self.engine.delete_row(engine_txn, table, pk)
            else:
                self.engine.write_row(engine_txn, table, pk, after)  # copies the image

    @staticmethod
    def _primary_key(before, after):
        image = after if after is not None else before
        try:
            return image["id"]
        except (KeyError, TypeError):
            raise MySQLError(f"row image without primary key: {image!r}") from None

    @staticmethod
    def _applier_xid(gtid_event: GtidEvent) -> int:
        # Stable digest (not built-in hash(), which varies per process
        # under hash randomization and would break byte-for-byte repro
        # bundle replay); offset keeps it collision-free with client xids
        # (which are small). Every replica applies the same interned
        # event, so the digest is cached on it, the way a transaction
        # caches its encoded bytes.
        xid = gtid_event.__dict__.get("_applier_xid")
        if xid is None:
            digest = hashlib.sha256(
                f"{gtid_event.source_uuid}/{gtid_event.txn_id}".encode()
            ).digest()
            xid = int.from_bytes(digest[:8], "big") + (1 << 44)
            object.__setattr__(gtid_event, "_applier_xid", xid)
        return xid

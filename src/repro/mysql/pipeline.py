"""The three-stage group-commit pipeline (§3.4, §3.5).

Transactions that reach their commit point enter here. Each stage has an
implicit mutex (one worker), and the set of transactions grouped
together moves down the stages in tandem:

1. **Flush** — the group is logged to the binlog (via Raft on MyRaft, via
   the local binlog + acker broadcast on semi-sync). One fsync per group.
2. **Wait for consensus commit** — blocked until the *last* transaction
   in the group is consensus-committed. On a MyRaft leader that means
   quorum votes arrived; on a follower, that the leader's commit marker
   reached it — the same ``wait_fn`` either way, preserving the paper's
   primary/replica symmetry.
3. **Engine commit** — the prepared transactions are durably committed;
   client futures resolve; row locks release.

The pipeline is policy-free: the three stage behaviours are injected, so
the identical machinery drives a MyRaft primary, a MyRaft replica's
applier, and the semi-sync baseline.

Each stage's worker is a small state machine driven by loop callbacks
(bound methods of :class:`CommitPipeline`), one callback per step. A
group costs six loop events: per stage, one ``call_soon`` hand-off into
the worker, then its fsync sleep (flush, engine commit) or the
consensus future's callback (wait). The schedule it keeps (DESIGN.md
§8, invariant 3):

- a worker parked on an empty queue gets a hand-off at ``put`` time; a
  worker coming back to a non-empty queue takes its head at once and
  steps on it one hand-off later, so the rest of the queue — including
  same-instant submits — joins the group the step drains;
- every step first checks the host: a crashed incarnation never steps
  again (crash() kills the pipeline, cancelling its sleeps), and a
  paused host defers the step to its pause barrier;
- each worker starts with one step of its own at construction, and
  ``stop()`` wakes each parked worker with one step that retires it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TransactionAborted
from repro.mysql.engine import EngineTransaction
from repro.mysql.events import Transaction
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.loop import Timer
from repro.raft.types import OpId

# flush_fn(group) -> OpId of the group's last entry (stamps txn.opid)
FlushFn = Callable[[list["PipelineTxn"]], OpId]
# wait_fn(last_opid) -> SimFuture resolving at consensus commit
WaitFn = Callable[[OpId], SimFuture]
# commit_fn(group) -> None: engine-commit every member
CommitFn = Callable[[list["PipelineTxn"]], None]


@dataclass
class PipelineTxn:
    """One transaction travelling through the pipeline."""

    payload: Transaction
    engine_txn: EngineTransaction | None
    done: SimFuture
    opid: OpId | None = None
    enqueue_time: float = 0.0
    aborted: bool = False
    context: dict[str, Any] = field(default_factory=dict)

    @property
    def is_data(self) -> bool:
        return self.payload.is_data


class _Stage:
    """One stage's worker: its FIFO of hand-offs, whether the worker is
    parked on it (idle), its pending sleep, and whether it has exited."""

    __slots__ = ("items", "idle", "timer", "exited", "take")

    def __init__(self, take: Callable[[Any], None]) -> None:
        self.items: deque = deque()
        self.idle = False
        self.timer: Timer | None = None
        self.exited = False
        self.take = take  # the worker's step on a handed-off item


class CommitPipeline:
    """The shared three-stage group-commit machine."""

    def __init__(
        self,
        host: Host,
        flush_fn: FlushFn,
        wait_fn: WaitFn,
        commit_fn: CommitFn,
        flush_latency: Callable[[int], float],
        commit_latency: Callable[[], float],
        abort_fn: Callable[["PipelineTxn"], None] | None = None,
        name: str = "pipeline",
    ) -> None:
        self.host = host
        self.name = name
        self._loop = host.loop
        self._incarnation = host.incarnation
        self._flush_fn = flush_fn
        self._wait_fn = wait_fn
        self._commit_fn = commit_fn
        self._abort_fn = abort_fn
        self._flush_latency = flush_latency
        self._commit_latency = commit_latency
        self._flush = _Stage(self._flush_take)
        self._wait = _Stage(self._wait_take)
        self._commit = _Stage(self._commit_take)
        self._stages = (self._flush, self._wait, self._commit)
        self._waiting: list[PipelineTxn] | None = None  # the group awaiting consensus
        self._in_flight: list[PipelineTxn] = []
        self._dead = False
        self.groups_flushed = 0
        self.txns_flushed = 0
        self.txns_committed = 0
        self.stopped = False
        host.adopt(self)
        for stage in self._stages:
            self._loop.call_soon(self._start, stage)

    # -- entry --------------------------------------------------------------

    def submit(self, txn: PipelineTxn) -> SimFuture:
        """Enter the pipeline; returns the txn's done future."""
        if self.stopped:
            txn.done.fail_if_pending(TransactionAborted(f"{self.name} stopped"))
            return txn.done
        txn.enqueue_time = self._loop.now
        self._put(self._flush, txn)
        return txn.done

    @property
    def depth(self) -> int:
        return sum(len(stage.items) for stage in self._stages) + len(self._in_flight)

    # -- worker mechanics ------------------------------------------------------

    def _put(self, stage: _Stage, item: Any) -> None:
        """Hand ``item`` to ``stage``: straight to a parked worker (one
        step, now), else behind the queue. A stopped stage drops it."""
        if self.stopped:
            return
        if stage.idle:
            stage.idle = False
            self._loop.call_soon(stage.take, item)
        else:
            stage.items.append(item)

    def _next(self, stage: _Stage) -> None:
        """The worker is free: exit if stopped, else take the queue's head
        (stepping on it one hand-off later) or park."""
        if self.stopped:
            stage.exited = True
        elif stage.items:
            self._loop.call_soon(stage.take, stage.items.popleft())
        else:
            stage.idle = True

    def _held(self, step: Callable[..., None], *args: Any) -> bool:
        """Whether ``step`` must not run now: the pipeline died with its
        host's incarnation, or the host is paused (``step`` re-runs when
        the pause barrier completes)."""
        if self._dead:
            return True
        host = self.host
        if not host.alive or host.incarnation != self._incarnation:
            self.kill()
            return True
        barrier = host.pause_barrier
        if barrier is None:
            return False
        barrier.add_done_callback(lambda _barrier: step(*args))
        return True

    def _start(self, stage: _Stage) -> None:
        if not self._held(self._start, stage):
            self._next(stage)

    def _retire(self, stage: _Stage) -> None:
        """stop() woke this parked worker: it exits."""
        if not self._held(self._retire, stage):
            stage.exited = True

    # -- stages --------------------------------------------------------------

    @staticmethod
    def _live(group: list[PipelineTxn]) -> list[PipelineTxn]:
        """Drop transactions aborted while the group was mid-stage (an
        abort_all may race a sleeping stage worker)."""
        return [txn for txn in group if not txn.aborted]

    def _flush_take(self, first: PipelineTxn) -> None:
        if self._held(self._flush_take, first):
            return
        group = [first]  # group commit: everything queued behind it joins
        group.extend(self._flush.items)
        self._flush.items.clear()
        self._in_flight.extend(group)
        # One fsync for the whole group plus any per-transaction work
        # (e.g. Raft's OpId/checksum/compress bookkeeping, §3.4).
        self._flush.timer = self._loop.call_after(
            self._flush_latency(len(group)), self._flush_done, group
        )

    def _flush_done(self, group: list[PipelineTxn]) -> None:
        self._flush.timer = None
        if self._held(self._flush_done, group):
            return
        group = self._live(group)
        if group:
            try:
                last_opid = self._flush_fn(group)
            except Exception as err:  # noqa: BLE001 - surfaces per txn
                self._abort_group(group, err)
            else:
                self.groups_flushed += 1
                self.txns_flushed += len(group)
                self._put(self._wait, (group, last_opid))
        self._next(self._flush)

    def _wait_take(self, item: tuple[list[PipelineTxn], OpId]) -> None:
        if self._held(self._wait_take, item):
            return
        group, last_opid = item
        try:
            consensus = self._wait_fn(last_opid)
        except Exception as err:  # noqa: BLE001
            self._abort_group(group, err)
            self._next(self._wait)
            return
        self._waiting = group
        consensus.add_done_callback(self._wait_done)

    def _wait_done(self, consensus: SimFuture) -> None:
        if self._held(self._wait_done, consensus):
            return
        group, self._waiting = self._waiting, None
        err = consensus.exception()
        if err is not None:
            self._abort_group(group, err)
        else:
            group = self._live(group)
            if group:
                self._put(self._commit, group)
        self._next(self._wait)

    def _commit_take(self, group: list[PipelineTxn]) -> None:
        if self._held(self._commit_take, group):
            return
        # One engine sync for the group.
        self._commit.timer = self._loop.call_after(self._commit_latency(), self._commit_done, group)

    def _commit_done(self, group: list[PipelineTxn]) -> None:
        self._commit.timer = None
        if self._held(self._commit_done, group):
            return
        group = self._live(group)
        if group:
            try:
                self._commit_fn(group)
            except Exception as err:  # noqa: BLE001
                self._abort_group(group, err)
            else:
                self.txns_committed += len(group)
                for txn in group:
                    self._remove_in_flight(txn)
                    txn.done.resolve_if_pending(txn.opid)
        self._next(self._commit)

    # -- teardown ---------------------------------------------------------------

    def _abort_group(self, group: list[PipelineTxn], err: BaseException) -> None:
        for txn in group:
            txn.aborted = True
            self._remove_in_flight(txn)
            if self._abort_fn is not None:
                self._abort_fn(txn)
            txn.done.fail_if_pending(err)

    def _remove_in_flight(self, txn: PipelineTxn) -> None:
        try:
            self._in_flight.remove(txn)
        except ValueError:
            pass

    def abort_all(self, reason: str) -> list[PipelineTxn]:
        """Demotion (§3.3): fail every queued and in-flight transaction.
        Returns them so the caller can roll back their engine state."""
        error = TransactionAborted(reason)
        victims: list[PipelineTxn] = list(self._flush.items)
        for group, _ in self._wait.items:
            victims.extend(group)
        for group in self._commit.items:
            victims.extend(group)
        for stage in self._stages:
            stage.items.clear()
        for txn in self._in_flight:
            if txn not in victims:
                victims.append(txn)
        self._in_flight.clear()
        for txn in victims:
            txn.aborted = True
            if self._abort_fn is not None:
                self._abort_fn(txn)
            txn.done.fail_if_pending(error)
        return victims

    def stop(self, reason: str = "stopped") -> list[PipelineTxn]:
        """Stop the workers and abort everything in flight. A busy worker
        exits when its step ends; a parked one is woken to exit."""
        self.stopped = True
        victims = self.abort_all(reason)
        for stage in self._stages:
            if stage.idle:
                stage.idle = False
                self._loop.call_soon(self._retire, stage)
        return victims

    # -- host binding (a volatile task of the host's incarnation) ---------------

    def kill(self) -> None:
        """The host crashed: no step runs again and no sleep fires."""
        if self._dead:
            return
        self._dead = True
        for stage in self._stages:
            if stage.timer is not None:
                stage.timer.cancel()
                stage.timer = None

    def done(self) -> bool:
        return self._dead or all(stage.exited for stage in self._stages)

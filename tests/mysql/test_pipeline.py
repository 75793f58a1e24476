"""Group-commit pipeline tests (§3.4's three stages)."""

import pytest

from repro.errors import TransactionAborted
from repro.mysql.events import GtidEvent, QueryEvent, Transaction, XidEvent
from repro.mysql.pipeline import CommitPipeline, PipelineTxn
from repro.raft.types import OpId
from repro.sim.coro import SimFuture
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import FixedLatency, Network, NetworkSpec
from repro.sim.rng import RngStream

UUID = "3E11FA47-71CA-11E1-9E33-C80AA9429562"


class PipelineWorld:
    """A pipeline with scripted stage behaviour."""

    def __init__(self, commit_delay=0.0):
        self.loop = EventLoop()
        net = Network(self.loop, RngStream(1), spec=NetworkSpec(in_region=FixedLatency(0.001)))
        self.host = Host(self.loop, net, "h1", "r1")
        self.host.attach_service(object())
        self.flushed_groups = []
        self.committed_groups = []
        self.aborted = []
        self.waiters = {}
        self.next_index = 0
        self.pipeline = CommitPipeline(
            host=self.host,
            flush_fn=self._flush,
            wait_fn=self._wait,
            commit_fn=self._commit,
            flush_latency=lambda group_size: 0.001,
            commit_latency=lambda: 0.0005,
            abort_fn=lambda txn: self.aborted.append(txn),
            name="test",
        )

    def _flush(self, group):
        self.flushed_groups.append(list(group))
        for txn in group:
            self.next_index += 1
            txn.opid = OpId(1, self.next_index)
        return group[-1].opid

    def _wait(self, opid):
        future = SimFuture(self.loop, label=f"wait:{opid}")
        self.waiters[opid.index] = future
        return future

    def _async_wait(self, opid):
        future = SimFuture(self.loop, label=f"async:{opid}")
        future.resolve(opid)
        return future

    def _commit(self, group):
        self.committed_groups.append(list(group))

    def make_txn(self, txn_id):
        payload = Transaction(
            events=(GtidEvent(UUID, txn_id, None), QueryEvent("BEGIN"), XidEvent(txn_id))
        )
        return PipelineTxn(
            payload=payload, engine_txn=None,
            done=SimFuture(self.loop, label=f"txn{txn_id}"),
        )

    def release(self, index):
        self.waiters[index].resolve(OpId(1, index))


class TestPipelineStages:
    def test_single_txn_flows_through(self):
        world = PipelineWorld()
        txn = world.make_txn(1)
        done = world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        assert len(world.flushed_groups) == 1
        assert not done.done()  # stuck at consensus wait
        world.release(1)
        world.loop.run_for(0.01)
        assert done.done() and done.result() == OpId(1, 1)
        assert world.committed_groups == [[txn]]

    def test_simultaneous_submits_form_one_group(self):
        world = PipelineWorld()
        txns = [world.make_txn(i) for i in range(1, 6)]
        for txn in txns:
            world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        # All five arrived before the flush worker woke: one batch, one
        # fsync — group commit working as intended.
        assert len(world.flushed_groups) == 1
        assert len(world.flushed_groups[0]) == 5

    def test_arrivals_during_fsync_form_next_group(self):
        world = PipelineWorld()
        world.pipeline.submit(world.make_txn(1))
        world.loop.run_for(0.0001)  # worker took group 1; fsync in progress
        world.pipeline.submit(world.make_txn(2))
        world.pipeline.submit(world.make_txn(3))
        world.loop.run_for(0.01)
        assert [len(g) for g in world.flushed_groups] == [1, 2]

    def test_groups_commit_in_order(self):
        # The wait stage is serial: group 2's consensus wait doesn't even
        # begin until group 1 passes, so commits are strictly ordered.
        world = PipelineWorld()
        world.pipeline.submit(world.make_txn(1))
        world.loop.run_for(0.0001)
        world.pipeline.submit(world.make_txn(2))
        world.pipeline.submit(world.make_txn(3))
        world.loop.run_for(0.01)
        assert len(world.flushed_groups) == 2
        assert list(world.waiters) == [1]  # only group 1 is waiting
        assert world.committed_groups == []
        world.release(1)
        world.loop.run_for(0.01)
        assert [len(g) for g in world.committed_groups] == [1]
        assert list(world.waiters) == [1, 3]  # group 2 now waits on its last
        world.release(3)
        world.loop.run_for(0.01)
        assert [len(g) for g in world.committed_groups] == [1, 2]

    def test_wait_failure_aborts_group_only(self):
        world = PipelineWorld()
        first = world.make_txn(1)
        world.pipeline.submit(first)
        world.loop.run_for(0.01)
        second = world.make_txn(2)
        world.pipeline.submit(second)
        world.loop.run_for(0.01)
        world.waiters[1].fail(TransactionAborted("demoted"))
        world.loop.run_for(0.01)
        assert first.done.failed()
        assert first in world.aborted
        # Second group proceeds independently.
        world.release(2)
        world.loop.run_for(0.01)
        assert second.done.done() and not second.done.failed()

    def test_abort_all_fails_everything(self):
        world = PipelineWorld()
        txns = [world.make_txn(i) for i in range(1, 4)]
        for txn in txns:
            world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        victims = world.pipeline.abort_all("demotion")
        world.loop.run_for(0.01)
        assert len(victims) == 3
        assert all(t.done.failed() for t in txns)
        assert {id(t) for t in world.aborted} >= {id(t) for t in txns}

    def test_submit_after_stop_fails_immediately(self):
        world = PipelineWorld()
        world.pipeline.stop("teardown")
        txn = world.make_txn(1)
        done = world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        assert done.failed()

    def test_flush_exception_aborts_group(self):
        world = PipelineWorld()

        def broken_flush(group):
            raise TransactionAborted("not leader")

        world.pipeline._flush_fn = broken_flush
        txn = world.make_txn(1)
        done = world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        assert done.failed()
        with pytest.raises(TransactionAborted):
            done.result()

    def test_depth_tracks_in_flight(self):
        world = PipelineWorld()
        assert world.pipeline.depth == 0
        world.pipeline.submit(world.make_txn(1))
        world.loop.run_for(0.01)
        assert world.pipeline.depth == 1
        world.release(1)
        world.loop.run_for(0.01)
        assert world.pipeline.depth == 0

    def test_counters(self):
        world = PipelineWorld()
        world.pipeline.submit(world.make_txn(1))
        world.loop.run_for(0.0001)
        world.pipeline.submit(world.make_txn(2))
        world.pipeline.submit(world.make_txn(3))
        world.loop.run_for(0.01)
        released = set()
        for _ in range(4):  # waiters register serially, one group at a time
            for index in list(world.waiters):
                if index not in released:
                    world.release(index)
                    released.add(index)
            world.loop.run_for(0.01)
        assert world.pipeline.txns_committed == 3
        assert world.pipeline.groups_flushed == 2


class TestCallbackStageContract:
    """The stages are loop callbacks; these pin the schedule they keep:
    six events per group, host-bound liveness and pause, stop()."""

    @staticmethod
    def flushed_and_waiting(world, txn_id=1):
        """Submit one txn and run it to its consensus wait."""
        txn = world.make_txn(txn_id)
        world.pipeline.submit(txn)
        world.loop.run_for(0.01)
        assert list(world.waiters) == [world.next_index]
        return txn

    def test_singleton_group_costs_six_loop_events(self):
        world = PipelineWorld()
        world.loop.run_for(0.0)  # the three workers' first steps
        fired, scheduled = world.loop.events_processed, world.loop.stats()["timers_scheduled"]
        txn = self.flushed_and_waiting(world)
        world.release(1)  # resolved outside the loop: no event of its own
        world.loop.run_for(0.01)
        assert txn.done.result() == OpId(1, 1)
        # Per stage: one hand-off, then a sleep (flush, engine commit) or
        # the consensus future's callback (wait).
        assert world.loop.events_processed - fired == 6
        assert world.loop.stats()["timers_scheduled"] - scheduled == 6

    def test_paused_host_commits_in_flight_groups_at_resume_in_order(self):
        world = PipelineWorld()
        world.pipeline._wait_fn = world._async_wait  # no consensus hold-up
        first, second, third = (world.make_txn(i) for i in (1, 2, 3))
        committed_at = []
        world.pipeline._commit_fn = lambda group: committed_at.append(
            (world.loop.now, [t.payload.gtid_event.txn_id for t in group])
        )
        world.pipeline.submit(first)
        world.loop.run_for(0.0001)  # group 1 is in its flush fsync
        world.pipeline.submit(second)
        world.pipeline.submit(third)
        world.loop.run_until(0.0012)  # group 1 in its engine sync, group 2 flushing
        world.host.pause()
        world.loop.call_at(0.01, world.host.resume)
        world.loop.run_until(0.009)
        assert committed_at == [] and not first.done.done()
        world.loop.run_until(0.05)
        assert committed_at[0] == (0.01, [1])  # the resume instant
        assert [ids for _t, ids in committed_at] == [[1], [2, 3]]
        assert committed_at[1][0] > 0.01
        assert [t.done.result().index for t in (first, second, third)] == [1, 2, 3]

    @pytest.mark.parametrize("phase", ["flush", "wait", "commit"])
    def test_crash_mid_stage_leaves_nothing_of_that_incarnation(self, phase):
        world = PipelineWorld()
        txn = world.make_txn(1)
        world.pipeline.submit(txn)
        world.loop.run_for({"flush": 0.0005, "wait": 0.005, "commit": 0.0}[phase])
        if phase == "commit":
            world.loop.run_for(0.005)
            world.release(1)
            world.loop.run_for(0.0002)  # inside the 0.5 ms engine sync
        world.host.crash()
        assert world.pipeline.done()
        assert world.loop.pending_count() == 0  # its sleep was cancelled
        world.host.restart()
        for future in world.waiters.values():
            future.resolve_if_pending(OpId(1, 1))
        late = world.make_txn(2)
        world.pipeline.submit(late)  # the old pipeline never steps again
        world.loop.run_for(0.05)
        assert world.committed_groups == []
        assert not txn.done.done() and not late.done.done()
        assert world.flushed_groups == ([] if phase == "flush" else [[txn]])

    def test_stop_during_flush_sleep_aborts_the_group(self):
        world = PipelineWorld()
        txn = world.make_txn(1)
        world.pipeline.submit(txn)
        world.loop.run_for(0.0005)  # mid-fsync
        victims = world.pipeline.stop("role change")
        assert victims == [txn] and txn in world.aborted
        with pytest.raises(TransactionAborted):
            txn.done.result()
        world.loop.run_for(0.01)
        assert world.flushed_groups == [] and world.waiters == {}
        assert world.pipeline.done()  # every worker exited

"""Write-path group commit: proposal batching through the Raft log.

The §3.4 contract: a flush group handed to ``propose_batch`` lands as
one contiguous, in-order run of entries via ONE storage append (up to
``PROPOSE_BATCH_MAX``), commits exactly like individually proposed
entries, and produces the same log as proposing them one at a time.
Plus redundant-heartbeat suppression: it cuts message counts without
losing convergence.
"""

from __future__ import annotations

import pytest

from repro.errors import RaftError
from repro.raft import batching
from repro.raft.types import RaftRole

from tests.raft.harness import RaftRing, three_node_ring, voter


class _AppendProbe:
    """Instance-attribute shadow of ``storage.append`` counting calls."""

    def __init__(self, storage) -> None:
        self.calls = 0
        self.entries = 0
        inner = storage.append

        def counting_append(entries):
            self.calls += 1
            self.entries += len(entries)
            return inner(entries)

        storage.append = counting_append


def _log_signature(node) -> list[tuple]:
    return [
        (e.opid.term, e.opid.index, e.kind, e.payload)
        for e in (node.storage.entry(i) for i in range(1, node.last_opid.index + 1))
    ]


class TestProposalBatching:
    def test_flush_group_is_one_storage_append(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        probe = _AppendProbe(leader.storage)

        results = leader.propose_batch(
            [lambda opid, i=i: b"txn-%d" % i for i in range(10)]
        )
        assert probe.calls == 0  # staged, not yet durable
        ring.run(1.0)
        assert probe.calls == 1
        assert probe.entries == 10
        indexes = [opid.index for opid, _ in results]
        assert indexes == list(range(indexes[0], indexes[0] + 10))
        for opid, future in results:
            assert future.result() == opid
        assert ring.logs_consistent_up_to_commit()

    def test_same_tick_proposes_coalesce(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        probe = _AppendProbe(leader.storage)
        futures = [leader.propose(lambda opid, i=i: b"p%d" % i)[1] for i in range(5)]
        ring.run(1.0)
        assert probe.calls == 1
        assert probe.entries == 5
        assert all(f.result() is not None for f in futures)

    def test_batch_splits_at_propose_batch_max(self, monkeypatch):
        monkeypatch.setattr(batching, "PROPOSE_BATCH_MAX", 4)
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        probe = _AppendProbe(leader.storage)
        leader.propose_batch([lambda opid, i=i: b"s%d" % i for i in range(10)])
        ring.run(1.0)
        assert probe.calls == 3  # 4 + 4 + 2
        assert probe.entries == 10

    def test_logs_identical_batched_vs_legacy(self):
        # The same payloads as one propose_batch per round, or proposed
        # one per loop instant (each its own one-entry flush group).
        signatures = []
        for batched in (True, False):
            ring = three_node_ring()
            leader = ring.bootstrap("n1")
            appends = _AppendProbe(leader.storage)
            for round_no in range(4):
                factories = [
                    lambda opid, r=round_no, i=i: b"r%d-t%d" % (r, i) for i in range(6)
                ]
                if batched:
                    leader.propose_batch(factories)
                else:
                    for factory in factories:
                        leader.propose(factory)
                        ring.run(0.001)
                ring.run(0.5)
            ring.run(1.0)
            assert appends.calls == (4 if batched else 24)
            assert ring.logs_consistent_up_to_commit()
            signatures.append(_log_signature(ring.node("n1")))
        assert signatures[0] == signatures[1]

    def test_staged_proposals_die_with_the_leader(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        tail_before = leader.storage.last_opid().index
        opid, future = leader.propose(lambda o: b"doomed")
        assert opid.index == tail_before + 1
        ring.host("n1").crash()  # before the same-tick flush fires
        assert isinstance(future.exception(), RaftError)
        # Never became durable: the restarted node's log has no trace.
        ring.host("n1").restart()
        assert ring.node("n1").storage.last_opid().index == tail_before
        new_leader = ring.wait_for_leader()
        assert new_leader.role == RaftRole.LEADER

    def test_single_proposal_latency_unchanged(self):
        # Microbatch boundary is same-tick: a lone writer must not wait.
        # It commits one in-region round trip (1 ms each way in this
        # ring) after the propose, the flush adding no simulated time.
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        committed_at = []
        start = ring.loop.now
        _, future = leader.propose(lambda o: b"solo")
        future.add_done_callback(lambda _f: committed_at.append(ring.loop.now))
        ring.run(1.0)
        assert future.exception() is None
        assert committed_at[0] - start == pytest.approx(2 * 0.001, abs=1e-6)

    def test_write_path_stats_surface(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        leader.propose_batch([lambda opid, i=i: b"x%d" % i for i in range(8)])
        ring.run(1.0)
        wp = leader.stats()["write_path"]
        assert wp["proposals"] == 8
        assert wp["proposal_batches"] >= 1
        assert wp["entries_per_append"]["count"] > 0
        assert wp["entries_per_append"]["max"] >= 1
        assert wp["inflight_hwm"] >= 1


class TestHeartbeatSuppression:
    @staticmethod
    def _leader_messages(ring: RaftRing, leader_name: str) -> int:
        return sum(
            stats.messages
            for (src, _dst), stats in ring.net.link_stats.items()
            if src == leader_name
        )

    @staticmethod
    def _drive() -> tuple[int, RaftRing]:
        ring = RaftRing([voter("n1"), voter("n2"), voter("n3")])
        leader = ring.bootstrap("n1")
        ring.net.reset_accounting()
        # Steady writes keep entry traffic flowing, making the forced
        # per-tick heartbeat redundant most of the time.
        for _ in range(40):
            leader.propose(lambda o: b"w")
            ring.run(0.1)
        ring.run(1.0)
        assert ring.logs_consistent_up_to_commit()
        return TestHeartbeatSuppression._leader_messages(ring, "n1"), ring

    def test_suppression_cuts_leader_message_count(self):
        messages, ring = self._drive()
        # 40 entry-bearing appends to each of two peers plus ten heartbeat
        # ticks to each of them: 100 messages if no heartbeat is skipped.
        assert messages <= 98
        # And the suppression is observable in stats.
        wp = ring.node("n1").stats()["write_path"]
        assert wp["heartbeats_suppressed"] > 0

    def test_idle_ring_still_heartbeats(self):
        # With no entry traffic the failure detector still needs feeding:
        # suppression must never starve an idle follower of heartbeats.
        ring = three_node_ring()
        ring.bootstrap("n1")
        ring.net.reset_accounting()
        ring.run(5.0)
        follower_msgs = ring.net.link_stats.get(("n1", "n2"))
        assert follower_msgs is not None
        # ~10 heartbeat ticks in 5s at 0.5s intervals.
        assert follower_msgs.messages >= 8
        # Nobody started an election.
        assert ring.node("n1").role == RaftRole.LEADER
        assert ring.node("n1").metrics["elections_started"] == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

"""Shared fan-out reads: one storage read per index per replication
round, no matter how many peers are behind (§3.1 hot path).

A 13-voter ring (leader + 12 followers, the paper topology's witness
count) with every follower forced to the same lagging cursor must cost
the leader exactly one window's worth of storage reads per round — and
read-through means the *next* round costs none. Without either, the
leader would pay the window once per peer, every round.
"""

from __future__ import annotations

import pytest

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.raft.config import RaftConfig
from repro.raft.replication import MAX_ENTRIES_PER_APPEND
from repro.raft.types import RaftRole
from repro.workload import sysbench_timing

from tests.raft.harness import RaftRing, voter

FOLLOWERS = 12


def _ring(**config_kwargs) -> RaftRing:
    members = [voter("leader")] + [voter(f"f{i}") for i in range(1, FOLLOWERS + 1)]
    ring = RaftRing(members, raft_config=RaftConfig(**config_kwargs))
    ring.bootstrap("leader")
    for _ in range(8):
        ring.commit_and_run(seconds=0.2)
    return ring


class _EntryProbe:
    """Instance-attribute shadow of ``storage.entry`` counting calls."""

    def __init__(self, storage) -> None:
        self.reads = 0
        inner = storage.entry

        def counting_entry(index):
            self.reads += 1
            return inner(index)

        storage.entry = counting_entry


def _reset_to_lagging(leader) -> None:
    """Rewind every peer to cursor 1 with the retry window expired, so
    the next replication round resends the whole log to all of them.
    Flow-control state resets to a fully opened window so the rewound
    round sends the whole log (this test measures read sharing, not
    slow-start)."""
    for progress in leader.leader_state.peers.values():
        progress.next_index = 1
        progress.last_sent_index = 0
        progress.last_sent_time = -1e9
        progress.inflight.clear()
        progress.window_entries = MAX_ENTRIES_PER_APPEND


def _window_length(leader) -> int:
    # The full log fits in one append window here; the send loop also
    # probes one index past the tail to find the end.
    assert leader.last_opid.index <= MAX_ENTRIES_PER_APPEND
    return leader.last_opid.index + 1


class TestSharedFanoutReads:
    def test_one_read_per_index_per_round(self):
        ring = _ring()
        leader = ring.node("leader")
        assert leader.role == RaftRole.LEADER

        _reset_to_lagging(leader)
        leader.cache.clear()
        probe = _EntryProbe(leader.storage)
        leader.replicator.replicate_all(force=True)
        # One shared window read for 12 lagging peers: cold cache, so
        # every in-window index hits storage exactly once.
        assert probe.reads == _window_length(leader)

        # Read-through populated the cache, so the same round again is
        # free apart from the one probe past the tail.
        _reset_to_lagging(leader)
        probe.reads = 0
        leader.replicator.replicate_all(force=True)
        assert probe.reads == 1

        # The rewound rounds really replicated: everyone reconverges.
        ring.run(1.0)
        assert ring.logs_consistent_up_to_commit()

    def test_caught_up_heartbeat_probes_once(self):
        ring = _ring()
        leader = ring.node("leader")
        # Steady state: every peer at the tail. A forced heartbeat round
        # probes the one index past the tail exactly once, shared.
        ring.run(1.0)
        # Age every peer's last send past the suppression window, so the
        # forced round is a real heartbeat rather than a suppressed one.
        for progress in leader.leader_state.peers.values():
            progress.last_sent_time = -1e9
        probe = _EntryProbe(leader.storage)
        leader.cache.clear()
        leader.replicator.replicate_all(force=True)
        assert probe.reads == 1


class TestNodeStats:
    def test_stats_shape(self):
        ring = _ring()
        leader = ring.node("leader")
        stats = leader.stats()
        assert stats["replication_rounds"] > 0
        assert stats["log"]["last_index"] == leader.last_opid.index
        cache = stats["cache"]
        for key in (
            "hits", "misses", "fills", "evictions",
            "hit_rate", "entries", "size_bytes", "max_bytes",
        ):
            assert key in cache
        assert cache["size_bytes"] <= cache["max_bytes"]

    def test_read_through_counts_fills(self):
        ring = _ring()
        leader = ring.node("leader")
        leader.cache.clear()
        _reset_to_lagging(leader)
        before = leader.cache.stats()["fills"]
        leader.replicator.replicate_all(force=True)
        assert leader.cache.stats()["fills"] == before + leader.last_opid.index


def _pump_writes(cluster, primary, first: int, count: int) -> None:
    """``count`` single-row overwrites numbered from ``first`` over 64
    keys, at most 32 in flight, rotating the binlog every 200 writes."""
    value = "x" * 220
    in_flight: list = []
    n = first
    while n < first + count or in_flight:
        while n < first + count and len(in_flight) < 32:
            key = n % 64
            in_flight.append(primary.submit_write("kv", {key: {"id": key, "n": n, "v": value}}))
            if n and n % 200 == 0:
                primary.flush_binary_logs()
            n += 1
        cluster.run(0.05)
        in_flight = [p for p in in_flight if not p.done()]


class TestPaperTopologyHotPath:
    """The hot path at the paper's fan-out: 19 peers, a log cache smaller
    than the replication lag window, and one remote region dark for the
    middle third of the writes, so its catch-up is served by parsing
    historical binlog files (§3.1). 1.76 leader storage reads per
    committed write at seed 1; 2.13 when peers at one cursor each read
    their own window, 2.36 when storage reads do not fill the cache
    either."""

    WRITES = 600

    def test_leader_storage_reads_per_write(self):
        cluster = MyRaftReplicaset(
            paper_topology(),
            seed=1,
            raft_config=RaftConfig(log_cache_max_bytes=48 << 10),
            timing=sysbench_timing(myraft=True),
        )
        primary = cluster.bootstrap()
        # Probe after bootstrap so election/no-op traffic isn't measured.
        probe = _EntryProbe(primary.storage)
        fills_before = primary.node.cache.stats()["fills"]
        region = next(
            s.host.region for s in cluster.database_services()
            if s.host.region != primary.host.region
        )
        dark = [name for name, s in cluster.services.items() if s.host.region == region]
        third = self.WRITES // 3
        _pump_writes(cluster, primary, 0, third)
        for name in dark:
            cluster.crash(name)
        _pump_writes(cluster, primary, third, third)
        for name in dark:
            cluster.restart(name)
        _pump_writes(cluster, primary, 2 * third, self.WRITES - 2 * third)
        goal = primary.node.last_opid.index
        deadline = cluster.loop.now + 60.0
        while cluster.loop.now < deadline and not (
            all(s.node.last_opid.index >= goal for s in cluster.services.values())
            and cluster.databases_converged()
        ):
            cluster.run(0.25)

        assert probe.reads / self.WRITES <= 2.0
        assert primary.node.cache.stats()["fills"] > fills_before
        checksums = {
            s.mysql.log_manager.content_checksum() for s in cluster.database_services()
        }
        assert len(checksums) == 1 and cluster.databases_converged()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

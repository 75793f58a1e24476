"""Cluster-level consistent-read tests (repro.reads), and the semi-sync
baseline's commit-pipeline read barrier they are measured against."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec, paper_topology
from repro.plugin.raft_plugin import READ_BARRIER_TIMEOUT
from repro.raft.config import RaftConfig
from repro.semisync import SemiSyncReplicaset
from repro.sim.coro import spawn
from repro.workload.profiles import production_timing

from tests.raft.harness import record_sends


def small_spec():
    return ReplicaSetSpec(
        "rs-reads",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


def make_cluster(mode: str, seed: int = 3, **config_kwargs):
    """A MyRaft replicaset reading in ``mode``; ``"barrier"`` is the
    semi-sync baseline, whose reads are marker transactions."""
    if mode == "barrier":
        rs = SemiSyncReplicaset(small_spec(), seed=seed)
    else:
        config = RaftConfig(read_mode=mode, **config_kwargs)
        rs = MyRaftReplicaset(small_spec(), seed=seed, raft_config=config)
    rs.bootstrap()
    rs.write_and_run("kv", {1: {"id": 1, "v": "one"}}, seconds=2.0)
    return rs


def run_read(rs, service, table, pk, seconds=3.0):
    process = service.submit_read(table, pk)
    rs.run(seconds)
    assert process.done() and not process.failed()
    _opid, row = process.result()
    return row


def total_metric(rs, key):
    return sum(s.node.metrics[key] for s in rs.services.values())


@pytest.mark.parametrize("mode", ["barrier", "read_index"])
def test_primary_read_returns_latest_value(mode):
    rs = make_cluster(mode)
    primary = rs.primary_service()
    assert run_read(rs, primary, "kv", 1) == {"id": 1, "v": "one"}
    assert run_read(rs, primary, "kv", 404) is None


def test_follower_mode_serves_from_replica():
    # A replica serves the read itself, from the ReadIndex it fetched.
    rs = make_cluster("read_index")
    replica = rs.server("region1-db1")
    assert run_read(rs, replica, "kv", 1) == {"id": 1, "v": "one"}
    assert total_metric(rs, "read_index_fetches") >= 1


@pytest.mark.parametrize(
    "mode, target",
    [("read_index", "primary"), ("read_index", "region1-db1")],
    ids=["read_index", "follower"],
)
def test_consistent_modes_append_nothing_to_the_log(mode, target):
    rs = make_cluster(mode)
    service = rs.primary_service() if target == "primary" else rs.server(target)
    before = rs.primary_service().node.last_opid.index
    for _ in range(4):
        run_read(rs, service, "kv", 1)
    assert rs.primary_service().node.last_opid.index == before


def test_barrier_mode_appends_one_entry_per_read():
    # The semi-sync baseline's read is a marker transaction through the
    # commit pipeline: one log entry per read.
    rs = make_cluster("barrier")
    primary = rs.primary_service()
    before = primary.storage.last_opid().index
    for _ in range(3):
        assert run_read(rs, primary, "kv", 1) == {"id": 1, "v": "one"}
    assert primary.storage.last_opid().index == before + 3


def test_read_index_rounds_are_batched():
    rs = make_cluster("read_index")
    primary = rs.primary_service()
    rounds_before = total_metric(rs, "read_probe_rounds")
    batch = [primary.submit_read("kv", 1) for _ in range(8)]
    rs.run(3.0)
    for process in batch:
        assert process.done() and not process.failed()
        assert process.result()[1] == {"id": 1, "v": "one"}
    rounds = total_metric(rs, "read_probe_rounds") - rounds_before
    # Concurrent reads share probe rounds: at most the "current + queued
    # next" pair, never one round per read.
    assert 1 <= rounds < 8


def _timed_read(rs, target, pk, latencies):
    started = rs.loop.now
    yield target.submit_read("kv", pk)
    latencies.append(rs.loop.now - started)


def paper_topology_read_run(
    mode: str, replicas: bool = False, writes: int = 20, reads: int = 32, burst: int = 8
):
    """One scripted run on the paper topology: a sequential write phase
    (identical in every mode), then bursts of concurrent reads — from the
    primary, or round-robin over the replicas with ``replicas``.
    Returns the write-phase checksums, the read-phase cross-region bytes
    and the read latencies."""
    rs = MyRaftReplicaset(
        paper_topology(),
        seed=1,
        raft_config=RaftConfig(read_mode=mode),
        timing=production_timing(myraft=True),
        trace_capacity=256,
    )
    primary = rs.bootstrap()
    for i in range(writes):
        write = primary.submit_write("kv", {i % 8: {"id": i % 8, "v": f"w{i}"}})
        while not write.done():
            rs.run(0.01)
    rs.run(2.0)  # every replica applies the write phase
    checksums = (primary.mysql.engine.checksum(), primary.mysql.log_manager.content_checksum())
    targets = [primary]
    if replicas:
        targets = [s for s in rs.database_services() if s is not primary]
    bytes_before = rs.net.cross_region_bytes()
    latencies: list[float] = []
    for start in range(0, reads, burst):
        batch = [
            spawn(rs.loop, _timed_read(rs, targets[i % len(targets)], i % 8, latencies))
            for i in range(start, start + burst)
        ]
        while not all(p.done() for p in batch):
            rs.run(0.01)
        assert not any(p.failed() for p in batch)
    return checksums, rs.net.cross_region_bytes() - bytes_before, sorted(latencies)


def p50(latencies):
    return latencies[len(latencies) // 2]


class TestReadModesOnThePaperTopology:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            "read_index": paper_topology_read_run("read_index"),
            "replica": paper_topology_read_run("read_index", replicas=True),
        }

    def test_reads_never_change_the_write_phase(self, runs):
        assert len({checksums for checksums, _bytes, _lat in runs.values()}) == 1

    def test_primary_read_index_reads_stay_in_the_leaders_region(self, runs):
        # Probes go only where the data quorum lives: no WAN byte, and a
        # read costs an in-region round trip (0.259 ms at p50), not the
        # ~60 ms of a cross-region one.
        _checksums, wan_bytes, latencies = runs["read_index"]
        assert wan_bytes == 0
        assert p50(latencies) < 1e-3

    def test_replica_reads_cross_the_wan_only_as_header_sized_fetches(self, runs):
        # 32 reads round-robin over the seven replicas, all outside the
        # leader's region: one 64 B fetch and one 64 B answer per read
        # (4,096 B) plus the read phase's heartbeats, 6,272 B in all. The
        # leader confirms each fetch in its own region; a probe round that
        # crossed the WAN would add to it.
        assert runs["replica"][1] <= 6272


def test_read_index_is_the_only_read_mode():
    RaftConfig(read_mode="read_index").validate()
    with pytest.raises(ValueError):
        RaftConfig(read_mode="lease").validate()


def test_follower_read_does_not_join_a_fetch_sent_before_it_was_invoked():
    # Linearizability: a read's index must be captured after the read was
    # invoked. A follower batches concurrent reads onto one ReadIndex
    # fetch, but a read arriving while a fetch is in flight has to wait
    # for the next one: the leader may have captured the running fetch's
    # index before a write this read is obliged to see.
    rs = make_cluster("read_index")
    primary, replica = rs.primary_service(), rs.server("region1-db1")
    rounds = primary.node.metrics["read_probe_rounds"]
    first = replica.submit_read("kv", 1)
    while primary.node.metrics["read_probe_rounds"] == rounds:
        rs.run(0.001)  # until the leader has captured the fetch's index
    write = primary.submit_write("kv", {1: {"id": 1, "v": "two"}})
    while not write.done():
        rs.run(0.001)
    assert not write.failed() and not first.done()
    second = replica.submit_read("kv", 1)  # invoked after the write was acked
    rs.run(3.0)
    assert first.done() and second.done() and not second.failed()
    assert second.result()[1] == {"id": 1, "v": "two"}
    assert replica.node.metrics["read_index_fetches"] >= 2


# -- probes go where the data quorum lives ------------------------------------------


def probe_destinations(sent):
    """(src, dst) of every ReadProbeRequest among recorded sends."""
    from repro.raft.messages import ReadProbeRequest

    return [(src, dst) for src, dst, m in sent if isinstance(m, ReadProbeRequest)]


@pytest.mark.parametrize("mode", ["read_index"])
def test_single_region_dynamic_probes_never_leave_the_leaders_region(mode):
    # First send and resend of a stalled round: the round is decided by
    # the leader's region, so nobody else is asked.
    rs = make_cluster(mode)
    primary = rs.primary_service()
    sent = record_sends(rs.net)
    assert run_read(rs, primary, "kv", 1) == {"id": 1, "v": "one"}
    rs.net.block_link("region0-db1", "region0-lt1")
    rs.net.block_link("region0-db1", "region0-lt2")
    stalled = primary.submit_read("kv", 1)
    rs.run(3 * rs.raft_config.heartbeat_interval)  # keepalive ticks resend
    rs.net.heal_all()
    rs.run(2.0)
    assert stalled.done()
    probes = probe_destinations(sent)
    assert len(probes) > 4
    assert {"region0-lt1", "region0-lt2"} <= {dst for _src, dst in probes}
    # (Cut off from its logtailers for that long, the leader may have been
    # replaced: the new one probes its own region.)
    assert all(src.split("-")[0] == dst.split("-")[0] for src, dst in probes)


@pytest.mark.parametrize("policy_name", ["multi_region", "majority"])
def test_wider_data_quorums_probe_every_voter(policy_name):
    from repro.flexiraft import FlexiMode, FlexiRaftPolicy
    from repro.raft.quorum import MajorityQuorum

    policy = (
        FlexiRaftPolicy(FlexiMode.MULTI_REGION)
        if policy_name == "multi_region"
        else MajorityQuorum()
    )
    rs = MyRaftReplicaset(
        small_spec(), seed=3, raft_config=RaftConfig(read_mode="read_index"), policy=policy
    )
    rs.bootstrap()
    rs.write_and_run("kv", {1: {"id": 1, "v": "one"}}, seconds=2.0)
    sent = record_sends(rs.net)
    assert run_read(rs, rs.primary_service(), "kv", 1) == {"id": 1, "v": "one"}
    voters = {m.name for m in rs.membership.voters()} - {"region0-db1"}
    assert {dst for _src, dst in probe_destinations(sent)} == voters


def test_read_still_fails_at_the_barrier_timeout_without_an_in_region_quorum():
    rs = make_cluster("read_index")
    primary = rs.primary_service()
    rs.crash("region0-lt1")
    rs.crash("region0-lt2")
    started = rs.loop.now
    process = primary.submit_read("kv", 1)
    rs.run(READ_BARRIER_TIMEOUT - 0.05)
    assert not process.done()
    rs.run(0.1)
    assert process.done() and process.failed()
    assert rs.loop.now - started < READ_BARRIER_TIMEOUT + 0.1


# -- a fetch goes straight to the leader ------------------------------------------


def learner_cluster():
    """``region1-lrn1`` sits behind its region's proxy, ``region1-db1``."""
    spec = ReplicaSetSpec(
        "rs-reads",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2, learners=1),
        ),
    )
    rs = MyRaftReplicaset(spec, seed=3, raft_config=RaftConfig(read_mode="read_index"))
    rs.bootstrap()
    rs.write_and_run("kv", {1: {"id": 1, "v": "one"}}, seconds=2.0)
    return rs


def read_index_messages(sent):
    from repro.raft.messages import ReadIndexRequest, ReadIndexResponse

    return [
        (type(m).__name__, src, dst)
        for src, dst, m in sent if isinstance(m, (ReadIndexRequest, ReadIndexResponse))
    ]


def test_learner_fetch_is_one_request_to_the_leader_and_one_response_back():
    # Header-sized and never batched on the way, a fetch relayed up the
    # region tree would cross the WAN once all the same, one LAN hop later.
    rs = learner_cluster()
    sent = record_sends(rs.net)
    assert run_read(rs, rs.server("region1-lrn1"), "kv", 1, seconds=0.2) == {"id": 1, "v": "one"}
    assert read_index_messages(sent) == [
        ("ReadIndexRequest", "region1-lrn1", "region0-db1"),
        ("ReadIndexResponse", "region0-db1", "region1-lrn1"),
    ]


def test_learner_read_with_its_proxy_crashed_completes_within_two_wan_round_trips():
    # The region's proxy is down, the leader alive one WAN hop away: the
    # fetch never depends on the proxy, so nothing waits out a re-send.
    rs = learner_cluster()
    rs.crash("region1-db1")
    learner = rs.server("region1-lrn1")
    wan_round_trip = 0.075  # ~30 ms one way, log-normal
    process = learner.submit_read("kv", 1)
    rs.run(2 * wan_round_trip)
    assert process.done() and not process.failed()
    assert process.result()[1] == {"id": 1, "v": "one"}

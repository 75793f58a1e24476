"""Reads in flight across leadership changes (the stale-leader danger zone).

Every read issued around a TransferLeadership or a leader crash must
either fail cleanly or return the linearizable (latest committed) value —
never the stale pre-write row.
"""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.raft.config import RaftConfig

LATEST = {"id": 1, "v": "v2"}


def small_spec():
    return ReplicaSetSpec(
        "rs-failover",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


def make_cluster(mode: str, seed: int):
    rs = MyRaftReplicaset(
        small_spec(), seed=seed, raft_config=RaftConfig(read_mode=mode)
    )
    rs.bootstrap()
    rs.write_and_run("kv", {1: {"id": 1, "v": "v1"}}, seconds=2.0)
    rs.write_and_run("kv", {1: LATEST}, seconds=2.0)
    return rs


def settle_outcomes(reads):
    """Partition finished read processes into (rows_served, failures)."""
    served, failed = [], 0
    for process in reads:
        if not process.done() or process.failed():
            failed += 1
            continue
        _opid, row = process.result()
        served.append(row)
    return served, failed


@pytest.mark.parametrize("mode", ["read_index"])
def test_reads_in_flight_during_transfer(mode):
    rs = make_cluster(mode, seed=5)
    old_primary = rs.primary_service()
    reads = [old_primary.submit_read("kv", 1) for _ in range(6)]
    transfer = rs.transfer_leadership("region1-db1")
    rs.run(10.0)
    assert transfer.done() and not transfer.failed()
    assert rs.primary_service().host.name == "region1-db1"
    served, _failed = settle_outcomes(reads)
    assert all(row == LATEST for row in served)
    # The read path works from the new primary afterwards.
    after = rs.primary_service().submit_read("kv", 1)
    rs.run(3.0)
    assert after.done() and not after.failed()
    assert after.result()[1] == LATEST


@pytest.mark.parametrize("mode", ["read_index"])
def test_reads_in_flight_during_leader_crash(mode):
    rs = make_cluster(mode, seed=9)
    old_primary = rs.primary_service()
    reads = [old_primary.submit_read("kv", 1) for _ in range(6)]
    rs.crash(old_primary.host.name)
    rs.run(15.0)
    new_primary = rs.primary_service()
    assert new_primary is not None
    assert new_primary.host.name != old_primary.host.name
    served, _failed = settle_outcomes(reads)
    assert all(row == LATEST for row in served)
    after = new_primary.submit_read("kv", 1)
    rs.run(3.0)
    assert after.done() and not after.failed()
    assert after.result()[1] == LATEST

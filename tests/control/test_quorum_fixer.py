"""Quorum Fixer tests (§5.3): shattered-quorum remediation."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.control.quorum_fixer import QuorumFixer


def spec():
    return ReplicaSetSpec(
        "qf-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


@pytest.fixture
def cluster():
    rs = MyRaftReplicaset(spec(), seed=7)
    rs.bootstrap()
    rs.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
    return rs


def shatter_quorum(cluster):
    """Kill both in-region logtailers AND partition the remote region's
    members from each other so no normal election can succeed."""
    cluster.crash("region0-lt1")
    cluster.crash("region0-lt2")
    # The leader keeps running but cannot commit; remote region cannot
    # elect without a region0 majority (last-known-leader region).
    cluster.run(5.0)


class TestQuorumFixer:
    def test_shattered_quorum_blocks_writes(self, cluster):
        shatter_quorum(cluster)
        primary = cluster.primary_service()
        if primary is not None:
            process = primary.submit_write("t", {9: {"id": 9}})
            cluster.run(3.0)
            assert not process.done()

    def test_fixer_declines_when_ring_healthy(self, cluster):
        fixer = QuorumFixer(cluster)
        report = fixer.run_to_completion()
        assert not report.succeeded
        assert "write-available" in report.refused_reason

    def test_fixer_restores_availability_with_stuck_leader(self, cluster):
        # The paper's typical case: the leader survives but both of its
        # in-region logtailers are gone — writes stall until remediation.
        cluster.run(3.0)  # replication drains so region1 is fully caught up
        shatter_quorum(cluster)
        fixer = QuorumFixer(cluster)
        report = fixer.run_to_completion()
        assert report.succeeded
        assert report.restore_seconds < 0.5  # 50 ms: the tool, not the operator
        primary = cluster.primary_service()
        assert primary is not None
        # The new leader sits in the healthy region and commits normally.
        assert cluster.membership.member(primary.host.name).region == "region1"
        process = primary.submit_write("t", {2: {"id": 2}})
        cluster.run(2.0)
        assert process.done() and not process.failed()
        assert primary.node._quorum_override is None

    def test_fixer_restores_availability_after_leader_also_dies(self, cluster):
        # Harsher: the whole data quorum is gone but the commits had
        # replicated out while it was healthy, so a covered live member of
        # region0 isn't available — use relaxed mode explicitly.
        cluster.run(3.0)
        shatter_quorum(cluster)
        cluster.crash("region0-db1")
        cluster.run(10.0)
        assert cluster.primary_service() is None
        fixer = QuorumFixer(cluster, conservative=False)
        report = fixer.run_to_completion()
        assert report.succeeded
        primary = cluster.primary_service()
        assert primary is not None
        # Nothing was lost: the committed row replicated before the loss.
        assert primary.mysql.engine.table("t").get(1) == {"id": 1}

    def test_conservative_mode_refuses_uncovered_quorum_region(self):
        # Kill the entire region0 (the data quorum) *before* remote members
        # fully caught up: conservative mode must refuse.
        rs = MyRaftReplicaset(spec(), seed=11)
        rs.bootstrap()
        # Commit writes that never leave region0.
        rs.net.isolate_region("region0")  # blocks cross-region only
        for i in range(3):
            process = rs.write_and_run("t", {i: {"id": i}}, seconds=0.5)
            assert process.done() and not process.failed()
        for name in ("region0-db1", "region0-lt1", "region0-lt2"):
            rs.crash(name)
        rs.net.heal_all()
        rs.run(8.0)
        fixer = QuorumFixer(rs, conservative=True)
        report = fixer.run_to_completion()
        assert not report.succeeded
        assert "could be lost" in report.refused_reason

    def test_relaxed_mode_proceeds_with_data_loss(self):
        rs = MyRaftReplicaset(spec(), seed=11)
        rs.bootstrap()
        rs.net.isolate_region("region0")
        for i in range(3):
            rs.write_and_run("t", {i: {"id": i}}, seconds=0.5)
        for name in ("region0-db1", "region0-lt1", "region0-lt2"):
            rs.crash(name)
        rs.net.heal_all()
        rs.run(8.0)
        fixer = QuorumFixer(rs, conservative=False)
        report = fixer.run_to_completion()
        assert report.succeeded
        # Availability restored, at the cost of the region0-only commits.
        primary = rs.primary_service()
        assert primary is not None
        assert primary.mysql.engine.table("t").get(0) is None

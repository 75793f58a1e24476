"""enable-raft rollout tests (§5.2)."""

import itertools

import pytest

from repro.cluster.topology import RegionSpec, ReplicaSetSpec
from repro.control.enable_raft import EnableRaftTool
from repro.errors import ReproError
from repro.plugin.raft_plugin import MyRaftServer
from repro.semisync import SemiSyncAutomationConfig, SemiSyncReplicaset
from repro.sim.coro import spawn
from repro.workload import sysbench_timing


def spec():
    return ReplicaSetSpec(
        "rollout-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


@pytest.fixture
def semisync_cluster():
    rs = SemiSyncReplicaset(spec(), seed=21)
    rs.bootstrap()
    for i in range(5):
        process = rs.write_and_run("t", {i: {"id": i, "v": f"pre{i}"}}, seconds=0.5)
        assert process.done() and not process.failed()
    rs.run(3.0)  # replicas and ackers drain
    return rs


class TestEnableRaft:
    def test_rollout_succeeds(self, semisync_cluster):
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert report.succeeded, report.aborted_reason
        assert len(report.converted_members) == 6  # 2 dbs + 4 logtailers

    def test_write_unavailability_is_a_few_seconds(self, semisync_cluster):
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert report.succeeded
        assert report.write_unavailability is not None
        assert report.write_unavailability < 10.0

    @pytest.mark.parametrize("seed", range(40, 45))
    def test_cutover_under_live_writes_costs_under_three_seconds(self, seed):
        # §5.2's "usually a few seconds", with a replication backlog to
        # drain: 1.51-1.90 s over these seeds.
        cluster = SemiSyncReplicaset(
            spec(), seed=seed, timing=sysbench_timing(myraft=False), trace_capacity=5_000
        )
        cluster.bootstrap()

        def writer():
            for counter in itertools.count(1):
                primary = cluster.primary_service()
                if primary is None:
                    return  # writes stopped: the cutover window began
                try:
                    yield primary.submit_write("load", {counter: {"id": counter}})
                except ReproError:
                    return  # read-only hit mid-flight
                yield 0.01

        spawn(cluster.loop, writer(), label="rollout-load")
        cluster.run(2.0)
        report = EnableRaftTool(cluster).run_to_completion()
        assert report.succeeded, report.aborted_reason
        assert report.write_unavailability < 3.0

    def test_existing_data_preserved(self, semisync_cluster):
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert report.succeeded
        cluster = semisync_cluster
        primary = cluster.primary_service()
        for i in range(5):
            assert primary.mysql.engine.table("t").get(i) == {"id": i, "v": f"pre{i}"}

    def test_writes_work_after_rollout(self, semisync_cluster):
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert report.succeeded
        cluster = semisync_cluster
        primary = cluster.primary_service()
        process = primary.submit_write("t", {100: {"id": 100, "v": "post"}})
        cluster.run(3.0)
        assert process.done() and not process.failed()
        # Replication now flows through Raft to the converted members.
        replica = next(s for s in cluster.database_services() if s is not primary)
        cluster.run(3.0)
        assert replica.mysql.engine.table("t").get(100) == {"id": 100, "v": "post"}

    def test_raft_failover_works_after_rollout(self, semisync_cluster):
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert report.succeeded
        cluster = semisync_cluster
        cluster.crash("region0-db1")
        deadline = cluster.loop.now + 30.0
        new_primary = None
        while cluster.loop.now < deadline:
            cluster.run(0.2)
            new_primary = cluster.primary_service()
            if new_primary is not None:
                break
        assert new_primary is not None
        assert new_primary.host.name == "region1-db1"

    def test_shell_serves_the_converted_members(self, semisync_cluster):
        # The shared replicaset shell keeps answering for members the
        # rollout handed to the other replication driver.
        cluster = semisync_cluster
        report = EnableRaftTool(cluster).run_to_completion()
        assert report.succeeded, report.aborted_reason
        services = cluster.database_services()
        assert [s.host.name for s in services] == ["region0-db1", "region1-db1"]
        assert all(isinstance(s, MyRaftServer) for s in services)
        primary = cluster.primary_service()
        assert isinstance(primary, MyRaftServer) and primary.node.is_leader
        assert primary.host.name == "region0-db1"
        process = cluster.write("t", {200: {"id": 200, "v": "shell"}})
        cluster.run(3.0)
        assert process.done() and not process.failed()
        assert primary.mysql.engine.table("t").get(200) == {"id": 200, "v": "shell"}

    def test_rollout_aborts_with_dead_member(self, semisync_cluster):
        semisync_cluster.crash("region1-lt1")
        tool = EnableRaftTool(semisync_cluster)
        report = tool.run_to_completion()
        assert not report.succeeded
        assert "members down" in report.aborted_reason

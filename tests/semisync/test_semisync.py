"""Prior-setup (semi-sync) baseline tests."""

import pytest

from repro.cluster.topology import RegionSpec, ReplicaSetSpec
from repro.mysql.server import ServerRole
from repro.semisync import SemiSyncAutomationConfig, SemiSyncReplicaset


def small_spec():
    return ReplicaSetSpec(
        "ss-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2, learners=1),
        ),
    )


FAST_AUTOMATION = SemiSyncAutomationConfig(
    health_check_interval=2.0,
    failures_for_detection=3,
    confirm_delay=1.0,
    queue_delay_median=2.0,
    queue_delay_sigma=0.2,
    failover_step_median=0.3,
)


@pytest.fixture
def cluster():
    rs = SemiSyncReplicaset(small_spec(), seed=5, automation_config=FAST_AUTOMATION)
    rs.bootstrap()
    return rs


class TestSemiSyncDataPath:
    def test_bootstrap(self, cluster):
        primary = cluster.primary_service()
        assert primary is not None
        assert primary.host.name == "region0-db1"
        assert primary.generation == 1

    def test_write_commits_after_one_acker_ack(self, cluster):
        process = cluster.write_and_run("t", {1: {"id": 1, "v": "x"}})
        assert process.done() and not process.failed()
        primary = cluster.primary_service()
        assert primary.mysql.engine.table("t").get(1) == {"id": 1, "v": "x"}

    def test_commit_latency_is_in_region(self, cluster):
        cluster.write_and_run("t", {0: {"id": 0}})
        t0 = cluster.loop.now
        process = cluster.write("t", {1: {"id": 1}})
        while not process.done():
            cluster.run(0.0005)
        assert cluster.loop.now - t0 < 0.010

    def test_ackers_receive_the_log(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}})
        cluster.run(1.0)
        acker = cluster.acker("region0-lt1")
        assert acker.storage.last_opid().index >= 1

    def test_async_replica_applies(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1, "v": "y"}}, seconds=2.0)
        replica = cluster.server("region1-db1")
        assert replica.mysql.engine.table("t").get(1) == {"id": 1, "v": "y"}

    def test_learner_replica_applies(self, cluster):
        cluster.write_and_run("t", {2: {"id": 2}}, seconds=2.0)
        learner = cluster.server("region1-lrn1")
        assert learner.mysql.engine.table("t").get(2) == {"id": 2}

    def test_no_ackers_blocks_commit(self, cluster):
        cluster.net.isolate("region0-lt1")
        cluster.net.isolate("region0-lt2")
        process = cluster.write("t", {1: {"id": 1}})
        cluster.run(2.0)
        assert not process.done()

    def test_replica_resend_after_partition(self, cluster):
        cluster.net.isolate("region1-db1")
        for i in range(5):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        cluster.net.heal("region1-db1")
        # Trigger a ship (the gap is detected and resent).
        cluster.write_and_run("t", {99: {"id": 99}}, seconds=3.0)
        replica = cluster.server("region1-db1")
        for i in range(5):
            assert replica.mysql.engine.table("t").get(i) == {"id": i}


class TestSemiSyncFailover:
    def test_dead_primary_failover(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(timeout=120.0, exclude="region0-db1")
        assert new_primary.host.name == "region1-db1"
        assert new_primary.generation == 2
        process = new_primary.submit_write("t", {2: {"id": 2}})
        cluster.run(2.0)
        assert process.done() and not process.failed()

    def test_failover_recovers_acked_transactions_from_logtailers(self, cluster):
        # Isolate the async replica so it lags, then commit writes that
        # only the in-region ackers hold, then kill the primary. The new
        # primary must reconcile those transactions from the acker logs.
        cluster.net.isolate("region1-db1")
        cluster.net.isolate("region1-lrn1")
        done = []
        for i in range(3):
            process = cluster.write_and_run("t", {i: {"id": i, "v": "acked"}}, seconds=0.5)
            assert process.done() and not process.failed()
            done.append(process)
        cluster.net.heal("region1-db1")
        cluster.net.heal("region1-lrn1")
        cluster.crash("region0-db1")
        # Immediately crash: replica may or may not have the entries; the
        # ackers definitely do.
        new_primary = cluster.wait_for_primary(timeout=120.0, exclude="region0-db1")
        cluster.run(5.0)
        for i in range(3):
            assert new_primary.mysql.engine.table("t").get(i) == {"id": i, "v": "acked"}

    def test_old_primary_rebuilt_on_return(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        cluster.crash("region0-db1")
        cluster.wait_for_primary(timeout=120.0, exclude="region0-db1")
        cluster.restart("region0-db1")
        cluster.run(30.0)
        old = cluster.server("region0-db1")
        assert old.mysql.role == ServerRole.REPLICA
        # It was wiped and re-seeded; it has the data again.
        cluster.write("t", {5: {"id": 5}})
        cluster.run(10.0)
        assert old.mysql.engine.table("t").get(1) == {"id": 1}
        assert old.mysql.engine.table("t").get(5) == {"id": 5}


class TestGracefulPromotion:
    def test_graceful_promotion(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        process = cluster.transfer_leadership("region1-db1")
        cluster.run(20.0)
        assert process.done() and not process.failed()
        primary = cluster.primary_service()
        assert primary.host.name == "region1-db1"
        assert primary.generation == 2
        # Old primary is now a replica and receives new writes.
        write = primary.submit_write("t", {2: {"id": 2}})
        cluster.run(5.0)
        assert write.done() and not write.failed()
        old = cluster.server("region0-db1")
        assert old.mysql.role == ServerRole.REPLICA
        assert old.mysql.engine.table("t").get(2) == {"id": 2}

    def test_promotion_is_subsecond_scale(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        t0 = cluster.loop.now
        process = cluster.transfer_leadership("region1-db1")
        while not process.done():
            cluster.run(0.1)
        elapsed = cluster.loop.now - t0
        assert elapsed < 5.0, f"graceful promotion took {elapsed:.1f}s"

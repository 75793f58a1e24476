"""End-to-end MyRaft replicaset tests: the full §3 integration."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec, paper_topology
from repro.errors import ReadOnlyError
from repro.mysql.server import ServerRole
from repro.workload import sysbench_timing


def small_spec():
    """One primary region + one remote region (fast to simulate)."""
    return ReplicaSetSpec(
        "rs-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2, learners=1),
        ),
    )


@pytest.fixture
def cluster():
    rs = MyRaftReplicaset(small_spec(), seed=2)
    rs.bootstrap()
    return rs


class TestBootstrapAndWrites:
    def test_bootstrap_elects_initial_primary(self, cluster):
        primary = cluster.primary_service()
        assert primary is not None
        assert primary.host.name == "region0-db1"
        assert primary.mysql.role == ServerRole.PRIMARY
        assert cluster.discovery.lookup_primary("rs-test") == "region0-db1"

    def test_ring_id_labels_node_stats(self, cluster):
        # Every member's stats carry the replicaset id, databases and
        # logtailers alike.
        for service in cluster.services.values():
            assert service.node.stats()["ring_id"] == small_spec().replicaset_id

    def test_write_commits_and_returns_opid(self, cluster):
        process = cluster.write_and_run("users", {1: {"id": 1, "name": "ann"}})
        assert process.done() and not process.failed()
        opid = process.result()
        assert opid is not None and opid.index >= 1

    def test_write_visible_in_primary_engine(self, cluster):
        cluster.write_and_run("users", {1: {"id": 1, "name": "ann"}})
        primary = cluster.primary_service()
        assert primary.mysql.engine.table("users").get(1) == {"id": 1, "name": "ann"}

    def test_write_replicates_to_remote_database(self, cluster):
        cluster.write_and_run("users", {7: {"id": 7, "v": "x"}}, seconds=3.0)
        remote = cluster.server("region1-db1")
        assert remote.mysql.engine.table("users").get(7) == {"id": 7, "v": "x"}

    def test_write_replicates_to_learner(self, cluster):
        cluster.write_and_run("users", {9: {"id": 9}}, seconds=3.0)
        learner = cluster.server("region1-lrn1")
        assert learner.mysql.engine.table("users").get(9) == {"id": 9}

    def test_replica_rejects_writes(self, cluster):
        replica = cluster.server("region1-db1")
        process = replica.submit_write("users", {1: {"id": 1}})
        cluster.run(0.5)
        with pytest.raises(ReadOnlyError):
            process.result()

    def test_many_writes_converge_and_logs_equal(self, cluster):
        for i in range(30):
            cluster.write("t", {i: {"id": i, "v": f"val{i}"}})
            cluster.run(0.02)
        cluster.run(5.0)
        assert cluster.databases_converged()
        assert cluster.logs_prefix_equal()

    def test_logtailers_store_the_same_log(self, cluster):
        for i in range(5):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        cluster.run(3.0)
        primary_log = cluster.server("region0-db1").mysql.log_manager
        tailer_log = cluster.logtailer("region0-lt1").log_manager
        assert primary_log.content_checksum() == tailer_log.content_checksum()

    def test_commit_latency_is_in_region_fast(self, cluster):
        # Single-region-dynamic: commits shouldn't wait for the 30ms WAN.
        start = cluster.loop.now
        process = cluster.write_and_run("t", {1: {"id": 1}})
        assert process.done() and not process.failed()
        # generous bound: well under one cross-region RTT
        primary = cluster.primary_service()
        # measure via a fresh write with exact timing
        t0 = cluster.loop.now
        process = cluster.write("t", {2: {"id": 2}})
        while not process.done():
            cluster.run(0.0005)
        latency = cluster.loop.now - t0
        assert latency < 0.010, f"commit latency {latency*1e6:.0f}us not in-region"


class TestFailover:
    def test_dead_primary_failover_promotes_database(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(timeout=30.0)
        assert new_primary.host.name != "region0-db1"
        assert new_primary.mysql.role == ServerRole.PRIMARY
        # new primary accepts writes
        process = new_primary.submit_write("t", {2: {"id": 2}})
        cluster.run(2.0)
        assert process.done() and not process.failed()

    def test_failover_preserves_committed_data(self, cluster):
        committed = cluster.write_and_run("t", {5: {"id": 5, "v": "keep"}}, seconds=3.0)
        assert committed.done() and not committed.failed()
        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(timeout=30.0)
        cluster.run(3.0)
        assert new_primary.mysql.engine.table("t").get(5) == {"id": 5, "v": "keep"}

    def test_erstwhile_primary_demotes_and_rejoins(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        cluster.crash("region0-db1")
        cluster.wait_for_primary(timeout=30.0)
        cluster.restart("region0-db1")
        cluster.run(8.0)
        old = cluster.server("region0-db1")
        assert old.mysql.role == ServerRole.REPLICA
        assert old.mysql.read_only
        # and it catches up on writes made while it was away
        new_primary = cluster.primary_service()
        process = new_primary.submit_write("t", {42: {"id": 42}})
        cluster.run(5.0)
        assert old.mysql.engine.table("t").get(42) == {"id": 42}

    def test_uncommitted_entry_truncated_when_new_leader_lacks_it(self, cluster):
        # A.2 case 2: the transaction reached the old primary's binlog but
        # never left the host. The new leader lacks it, so on rejoin the
        # old primary truncates it and strips its GTID; the client's write
        # fails; the row exists nowhere.
        primary = cluster.primary_service()
        cluster.net.isolate("region0-db1")
        process = primary.submit_write("t", {1: {"id": 1, "v": "orphan"}})
        cluster.run(1.0)
        assert not process.done()
        cluster.wait_for_primary(timeout=30.0, exclude="region0-db1")
        cluster.net.heal("region0-db1")
        cluster.run(8.0)
        assert process.done() and process.failed()
        for name in ("region0-db1", "region1-db1"):
            assert cluster.server(name).mysql.engine.table("t").get(1) is None
        assert cluster.logs_prefix_equal()

    def test_uncommitted_entry_dies_with_old_region_even_if_remotes_have_it(self, cluster):
        # FlexiRaft subtlety: an entry that escaped to remote regions but
        # was never acked by the leader's in-region data quorum is NOT
        # protected by leader completeness. A new leader elected from the
        # old region's logtailers legitimately truncates it everywhere.
        primary = cluster.primary_service()
        cluster.net.isolate("region0-lt1")
        cluster.net.isolate("region0-lt2")
        process = primary.submit_write("t", {1: {"id": 1, "v": "ghost"}})
        cluster.run(1.0)
        assert not process.done()  # stuck: no in-region data quorum
        # The entry did reach the remote region's members.
        assert cluster.server("region1-db1").node.last_opid.index >= 2
        cluster.net.isolate("region0-db1")
        cluster.net.heal("region0-lt1")
        cluster.net.heal("region0-lt2")
        cluster.wait_for_primary(timeout=30.0, exclude="region0-db1")
        cluster.net.heal("region0-db1")
        cluster.run(8.0)
        assert process.done() and process.failed()
        for name in ("region0-db1", "region1-db1", "region1-lrn1"):
            assert cluster.server(name).mysql.engine.table("t").get(1) is None
        assert cluster.logs_prefix_equal()

    def test_crash_before_engine_commit_reapplied_after_recovery(self, cluster):
        # A.2 case 3: the transaction reached an in-region logtailer's log,
        # but the primary crashed before the ack came back (so before
        # engine commit). The logtailer's longer log wins the election, the
        # entry consensus-commits under the new leader, and the restarted
        # old primary reapplies it from the relay log via its applier.
        primary = cluster.primary_service()
        process = primary.submit_write("t", {1: {"id": 1, "v": "survives"}})
        # Run until a logtailer has appended the entry, then crash the
        # primary inside the ack-in-flight window.
        target_index = None
        for _ in range(100000):
            cluster.run(0.00002)
            lt = cluster.logtailer("region0-lt1").node
            if lt.last_opid.index >= 2 and lt.last_opid.term == 1:
                target_index = lt.last_opid.index
                break
        assert target_index is not None, "logtailer never received the entry"
        assert primary.node.commit_index < target_index, "ack already processed"
        cluster.crash("region0-db1")
        assert not process.done() or process.failed()  # client outcome unknown
        new_primary = cluster.wait_for_primary(timeout=40.0, exclude="region0-db1")
        cluster.run(3.0)
        # The entry consensus-committed under the new leadership.
        assert new_primary.mysql.engine.table("t").get(1) == {"id": 1, "v": "survives"}
        # The old primary restarts: prepared txn rolled back, then the
        # applier reapplies the transaction from scratch (A.2 case 3).
        cluster.restart("region0-db1")
        cluster.run(10.0)
        old = cluster.server("region0-db1")
        assert old.mysql.engine.table("t").get(1) == {"id": 1, "v": "survives"}
        assert cluster.logs_prefix_equal()


class TestGracefulPromotion:
    def test_transfer_leadership_promotes_target(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        future = cluster.transfer_leadership("region1-db1")
        cluster.run(5.0)
        assert future.done() and future.result() is True
        new_primary = cluster.wait_for_primary()
        assert new_primary.host.name == "region1-db1"
        # old primary is a working replica now
        old = cluster.server("region0-db1")
        assert old.mysql.role == ServerRole.REPLICA

    def test_writes_work_after_promotion(self, cluster):
        cluster.transfer_leadership("region1-db1")
        cluster.run(5.0)
        new_primary = cluster.wait_for_primary()
        process = new_primary.submit_write("t", {3: {"id": 3}})
        cluster.run(2.0)
        assert process.done() and not process.failed()
        cluster.run(3.0)
        assert cluster.databases_converged()


class TestReimagedExPrimary:
    def test_promoted_again_it_issues_gtids_nobody_has_executed(self, cluster):
        # region0-db1 commits GTIDs as primary, hands leadership over, is
        # wiped and rejoins (its GTID counter lives on the wiped disk), and
        # is promoted again. Its next write must carry a fresh GTID: every
        # replica skips one it already executed as a re-delivery.
        for i in range(1, 4):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.5)
        cluster.transfer_leadership("region1-db1")
        cluster.run(5.0)
        assert cluster.wait_for_primary().host.name == "region1-db1"
        cluster.reimage_member("region0-db1")
        cluster.run(8.0)
        cluster.transfer_leadership("region0-db1")
        cluster.run(5.0)
        primary = cluster.wait_for_primary()
        assert primary.host.name == "region0-db1"
        process = primary.submit_write("t", {9: {"id": 9}})
        cluster.run(5.0)
        assert process.done() and not process.failed()
        for service in cluster.database_services():
            assert service.mysql.engine.table("t").get(9) == {"id": 9}, service.host.name
        assert cluster.databases_converged()


class TestCrashRecovery:
    def test_replica_crash_recovery_reapplies(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        cluster.crash("region1-db1")
        for i in range(2, 6):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.5)
        cluster.restart("region1-db1")
        cluster.run(8.0)
        replica = cluster.server("region1-db1")
        for i in range(1, 6):
            assert replica.mysql.engine.table("t").get(i) == {"id": i}

    def test_logtailer_crash_recovery(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=1.0)
        cluster.crash("region0-lt1")
        cluster.write_and_run("t", {2: {"id": 2}}, seconds=1.0)
        cluster.restart("region0-lt1")
        cluster.run(5.0)
        tailer = cluster.logtailer("region0-lt1")
        primary = cluster.server("region0-db1")
        assert tailer.node.last_opid == primary.node.last_opid

    def test_paper_scale_topology_boots(self):
        rs = MyRaftReplicaset(paper_topology(), seed=3)
        primary = rs.bootstrap()
        assert primary.host.name == "region0-db1"
        process = rs.write_and_run("t", {1: {"id": 1}}, seconds=3.0)
        assert process.done() and not process.failed()


class TestGroupCommitThroughRaft:
    def test_concurrent_writers_share_storage_appends(self):
        # §3.4: the binlog flush group becomes one multi-entry Raft append.
        rs = MyRaftReplicaset(
            paper_topology(follower_regions=2, learners=0),
            seed=1,
            timing=sysbench_timing(myraft=True),
        )
        primary = rs.bootstrap()
        widths = []
        append = primary.storage.append

        def counting_append(entries):
            widths.append(len(entries))
            return append(entries)

        primary.storage.append = counting_append
        writers, bursts = 24, 12
        for burst in range(bursts):
            # The backlog: every writer's transaction reaches the commit
            # point in the same instant, the regime group commit is for.
            processes = [
                primary.submit_write(
                    "kv", {w: {"id": w, "n": burst * writers + w, "v": "x" * 200}}
                )
                for w in range(writers)
            ]
            deadline = rs.loop.now + 30.0
            while not all(p.done() for p in processes) and rs.loop.now < deadline:
                rs.run(0.05)
            assert all(p.done() and not p.failed() for p in processes)
        rs.run(2.0)

        # 34 appends for 288 transactions, up to 23 entries wide, at seed 1.
        assert len(widths) / (writers * bursts) <= 0.2
        assert max(widths) > 1
        tail = primary.node.last_opid
        assert all(s.node.last_opid == tail for s in rs.services.values())
        assert rs.logs_prefix_equal() and rs.databases_converged()

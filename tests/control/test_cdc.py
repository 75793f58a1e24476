"""CDC consumer tests: binlog compatibility across failovers (§3)."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.control.cdc import CdcConsumer


def spec():
    return ReplicaSetSpec(
        "cdc-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


@pytest.fixture
def cluster():
    rs = MyRaftReplicaset(spec(), seed=23)
    rs.bootstrap()
    return rs


class TestCdcBasics:
    def test_captures_committed_changes(self, cluster):
        consumer = CdcConsumer(cluster, source="region0-db1")
        consumer.start()
        for i in range(5):
            cluster.write_and_run("orders", {i: {"id": i, "qty": i * 10}}, seconds=0.3)
        cluster.run(1.0)
        consumer.stop()
        assert len(consumer.records) == 5
        assert consumer.stream_is_ordered()
        assert consumer.replay_table("orders") == {
            i: {"id": i, "qty": i * 10} for i in range(5)
        }

    def test_updates_and_deletes_replay(self, cluster):
        consumer = CdcConsumer(cluster, source="region0-db1")
        consumer.start()
        cluster.write_and_run("t", {1: {"id": 1, "v": "a"}}, seconds=0.3)
        cluster.write_and_run("t", {1: {"id": 1, "v": "b"}}, seconds=0.3)
        cluster.write_and_run("t", {2: {"id": 2, "v": "c"}}, seconds=0.3)
        cluster.write_and_run("t", {1: None}, seconds=0.3)
        cluster.run(1.0)
        assert consumer.replay_table("t") == {2: {"id": 2, "v": "c"}}
        primary = cluster.primary_service()
        assert consumer.replay_table("t") == {
            pk: row for pk, row in primary.mysql.engine.table("t").rows.items()
        }

    def test_tails_a_replica_too(self, cluster):
        consumer = CdcConsumer(cluster, source="region1-db1")
        consumer.start()
        for i in range(3):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        cluster.run(3.0)
        assert len(consumer.records) == 3

    def test_does_not_emit_uncommitted_tail(self, cluster):
        # Shatter the quorum so new writes flush but never commit; the
        # consumer must not emit them.
        consumer = CdcConsumer(cluster, source="region0-db1")
        consumer.start()
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=0.5)
        cluster.crash("region0-lt1")
        cluster.crash("region0-lt2")
        cluster.net.isolate("region1-db1")
        cluster.net.isolate("region1-lt1")
        cluster.net.isolate("region1-lt2")
        primary = cluster.primary_service()
        primary.submit_write("t", {99: {"id": 99}})
        cluster.run(2.0)
        assert all(r.pk != 99 for r in consumer.records)
        assert len(consumer.records) == 1


class TestCdcAcrossFailover:
    def test_switch_source_is_gap_free_and_duplicate_free(self, cluster):
        consumer = CdcConsumer(cluster, source="region0-db1")
        consumer.start()
        for i in range(4):
            cluster.write_and_run("t", {i: {"id": i, "v": "pre"}}, seconds=0.3)
        cluster.run(2.0)
        # The tailed source dies; switch to the new primary.
        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(exclude="region0-db1")
        consumer.switch_source(new_primary.host.name)
        for i in range(4, 8):
            process = new_primary.submit_write("t", {i: {"id": i, "v": "post"}})
            cluster.run(0.5)
            assert process.done() and not process.failed()
        cluster.run(2.0)
        consumer.stop()
        assert consumer.stream_is_ordered()
        assert consumer.stream_is_duplicate_free()
        assert consumer.duplicates_skipped >= 4  # re-read overlap was deduped
        replayed = consumer.replay_table("t")
        assert replayed == {
            **{i: {"id": i, "v": "pre"} for i in range(4)},
            **{i: {"id": i, "v": "post"} for i in range(4, 8)},
        }


class TestCdcAfterPurge:
    def test_resumes_at_the_first_retained_index_without_a_gap(self, cluster):
        # The consumer drains once and sleeps while its source purges past
        # its cursor: it skips to first_index() and misses nothing after.
        consumer = CdcConsumer(cluster, source="region0-db1", poll_interval=30.0)
        consumer.start()
        for i in range(4):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        primary = cluster.primary_service()
        primary.flush_binary_logs()
        for i in range(4, 6):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        assert primary.snapshot_and_compact()
        for i in range(6, 9):
            cluster.write_and_run("t", {i: {"id": i}}, seconds=0.3)
        cluster.run(30.0)
        first, commit = primary.storage.first_index(), primary.node.commit_index
        assert [r.opid_index for r in consumer.records] == list(range(first, commit + 1))
        assert [r.pk for r in consumer.records] == [4, 5, 6, 7, 8]

"""Integration tests for in-protocol snapshot shipping (repro.snapshot).

These drive whole simulated replicasets through the scenarios the
subsystem exists for: bootstrapping a wiped member from a leader whose
log prefix is purged, surviving a crash mid-transfer, racing a leader
change, and un-pinning compaction from a partitioned region.
"""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.flexiraft.watermarks import safe_purge_horizon
from repro.snapshot import transfer
from repro.snapshot.installer import STAGING_NAMESPACE
from repro.workload.profiles import sysbench_timing


def two_region_spec() -> ReplicaSetSpec:
    return ReplicaSetSpec(
        "snap-test",
        (
            RegionSpec("region0", databases=1, logtailers=1),
            RegionSpec("region1", databases=1, logtailers=1),
        ),
    )


def pace_transfers(
    monkeypatch, chunk_bytes: int, bytes_per_sec: float, retry: float | None = None
) -> None:
    """Tiny chunks and a slow ship rate stretch a transfer over many
    events (the shipper reads these constants when it sends)."""
    monkeypatch.setattr(transfer, "SNAPSHOT_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(transfer, "SNAPSHOT_MAX_BYTES_PER_SEC", bytes_per_sec)
    if retry is not None:
        monkeypatch.setattr(transfer, "SNAPSHOT_RETRY_INTERVAL", retry)


def load(cluster, primary, writes: int, rotate_every: int = 10, start: int = 0) -> None:
    """Sequential overwrite-heavy writes with periodic binlog rotation,
    so compaction has whole closed files to drop."""
    for i in range(start, start + writes):
        key = i % 8
        primary.submit_write("kv", {key: {"id": key, "n": i, "v": "x" * 60}})
        if (i + 1) % rotate_every == 0:
            primary.flush_binary_logs()
        cluster.run(0.05)
    cluster.run(2.0)


def run_until(cluster, predicate, timeout: float = 30.0, step: float = 0.1) -> None:
    deadline = cluster.loop.now + timeout
    while cluster.loop.now < deadline:
        cluster.run(step)
        if predicate():
            return
    raise AssertionError("condition not reached within timeout")


def member_caught_up(cluster, name: str, goal_log: int, goal_engine: int | None = None):
    def check() -> bool:
        service = cluster.services[name]
        if service.node.last_opid.index < goal_log:
            return False
        if goal_engine is None:
            return True
        return service.mysql.engine.last_committed_opid.index >= goal_engine

    return check


class TestSnapshotBootstrap:
    def test_purged_leader_bootstraps_fresh_member(self):
        cluster = MyRaftReplicaset(two_region_spec(), seed=11)
        primary = cluster.bootstrap()
        load(cluster, primary, 60)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal))

        purged = primary.snapshot_and_compact()
        assert purged
        assert primary.storage.first_index() > 1

        cluster.reimage_member("region1-db1")
        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal_log, goal_engine))

        victim = cluster.services["region1-db1"]
        assert victim.node.metrics["snapshot_installs"] >= 1
        assert primary.node.metrics["snapshots_shipped"] >= 1
        assert cluster.databases_converged()
        assert cluster.logs_prefix_equal()

    def test_crash_mid_transfer_resumes_from_staging(self, monkeypatch):
        # Tiny chunks + a slow ship rate stretch the transfer over many
        # events so we can crash the follower in the middle of it.
        pace_transfers(monkeypatch, chunk_bytes=128, bytes_per_sec=2048.0, retry=0.2)
        cluster = MyRaftReplicaset(two_region_spec(), seed=12)
        primary = cluster.bootstrap()
        load(cluster, primary, 40)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal))
        assert primary.snapshot_and_compact()

        cluster.reimage_member("region1-db1")
        staging = cluster.hosts["region1-db1"].disk.namespace(STAGING_NAMESPACE)
        run_until(cluster, lambda: len(staging.get("pool", {})) >= 1, step=0.02)
        total = staging["manifest"]["total_chunks"]
        assert len(staging["pool"]) < total  # genuinely mid-transfer

        cluster.crash("region1-db1")
        cluster.run(0.5)
        cluster.restart("region1-db1")

        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal_log, goal_engine))

        installer = cluster.services["region1-db1"].node.snapshots.installer
        assert installer.metrics["resumes"] >= 1  # staged chunks survived the crash
        assert installer.metrics["installs"] >= 1
        assert cluster.databases_converged()

    def test_install_races_leader_change(self, monkeypatch):
        # Three databases in one region; the victim's transfer is cut
        # short by the leader crashing, and the *new* leader (whose own
        # log prefix is also purged) must re-ship from a fresh image.
        spec = ReplicaSetSpec(
            "snap-lead", (RegionSpec("region0", databases=3, logtailers=0),)
        )
        pace_transfers(monkeypatch, chunk_bytes=128, bytes_per_sec=2048.0)
        cluster = MyRaftReplicaset(spec, seed=13)
        primary = cluster.bootstrap()
        load(cluster, primary, 40, rotate_every=8)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region0-db2", goal))
        run_until(cluster, member_caught_up(cluster, "region0-db3", goal))

        assert primary.snapshot_and_compact()
        db2 = cluster.server("region0-db2")
        db2.purge_to_horizon()  # replica purge: below its applied index
        assert db2.storage.first_index() > 1

        cluster.reimage_member("region0-db3")
        staging = cluster.hosts["region0-db3"].disk.namespace(STAGING_NAMESPACE)
        run_until(cluster, lambda: len(staging.get("pool", {})) >= 1, step=0.02)

        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(exclude="region0-db1")
        assert new_primary.host.name == "region0-db2"

        goal_log = new_primary.node.last_opid.index
        goal_engine = new_primary.mysql.engine.last_committed_opid.index
        run_until(
            cluster,
            member_caught_up(cluster, "region0-db3", goal_log, goal_engine),
            timeout=60.0,
        )
        assert cluster.services["region0-db3"].node.metrics["snapshot_installs"] >= 1
        assert new_primary.node.metrics["snapshots_shipped"] >= 1

        cluster.restart("region0-db1")
        run_until(cluster, cluster.databases_converged, timeout=30.0)

    @staticmethod
    def reimaged_catch_up(compact: bool, entries: int = 400):
        """Wipe ``region1-db1`` after an overwrite-heavy ``entries``-write
        stream — with or without ``snapshot_and_compact()`` first — and
        measure its catch-up from the wipe: (cross-region bytes, simulated
        seconds, snapshot installs). Same seed, same stream either way."""
        cluster = MyRaftReplicaset(
            two_region_spec(), seed=7, timing=sysbench_timing(myraft=True), trace_capacity=256
        )
        primary = cluster.bootstrap()
        for first in range(0, entries, 32):
            batch = []
            for n in range(first, min(first + 32, entries)):
                batch.append(primary.submit_write("kv", {n % 64: {"id": n % 64, "n": n, "v": "x" * 96}}))
                if (n + 1) % 80 == 0:
                    primary.flush_binary_logs()
            run_until(cluster, lambda: all(p.done() for p in batch), step=0.05)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal, goal))
        if compact:
            assert primary.snapshot_and_compact()
        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        cluster.net.reset_accounting()
        cluster.reimage_member("region1-db1")
        started = cluster.loop.now
        run_until(
            cluster, member_caught_up(cluster, "region1-db1", goal_log, goal_engine), timeout=120.0
        )
        victim = cluster.services["region1-db1"]
        return (
            cluster.net.cross_region_bytes(),
            cluster.loop.now - started,
            victim.node.metrics["snapshot_installs"],
        )

    @pytest.fixture(scope="class")
    def bootstraps(self):
        return {compact: self.reimaged_catch_up(compact) for compact in (False, True)}

    def test_snapshot_seeding_ships_fewer_bytes_than_index_1_replay(self, bootstraps):
        replay, seeded = bootstraps[False], bootstraps[True]
        assert seeded[0] < replay[0]
        assert (replay[2], seeded[2]) == (0, 1)

    def test_snapshot_seeding_catches_up_sooner_than_index_1_replay(self, bootstraps):
        assert bootstraps[True][1] < bootstraps[False][1]

    def test_partitioned_region_purge_then_ship(self):
        # A partitioned region pins the vanilla purge watermark; with a
        # snapshot the leader compacts past it, and on heal the stranded
        # members (database AND logtailer) are re-seeded over the wire —
        # the LogTruncatedError fallback path.
        cluster = MyRaftReplicaset(two_region_spec(), seed=17)
        primary = cluster.bootstrap()
        load(cluster, primary, 20)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal))
        run_until(cluster, member_caught_up(cluster, "region1-lt1", goal))

        cluster.net.partition_regions("region0", "region1")
        stalled = cluster.services["region1-db1"].node.last_opid.index
        load(cluster, primary, 40, rotate_every=8, start=20)

        # Vanilla purging is pinned at the partitioned region's watermark.
        vanilla = safe_purge_horizon(
            primary.node.membership, primary.node.leader_state.match_of
        )
        assert vanilla <= stalled + 1

        purged = primary.snapshot_and_compact()
        assert purged
        # The leader compacted past what region1 holds: replay from the
        # log alone can no longer catch them up.
        assert primary.storage.first_index() > stalled + 1

        cluster.net.heal_regions("region0", "region1")
        primary = cluster.wait_for_primary()
        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        run_until(
            cluster,
            member_caught_up(cluster, "region1-db1", goal_log, goal_engine),
            timeout=60.0,
        )
        run_until(
            cluster,
            member_caught_up(cluster, "region1-lt1", goal_log),
            timeout=60.0,
        )
        assert cluster.services["region1-db1"].node.metrics["snapshot_installs"] >= 1
        assert cluster.services["region1-lt1"].node.metrics["snapshot_installs"] >= 1
        assert cluster.databases_converged()

"""Integration tests for edge behaviours the paper calls out explicitly."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.control.automation import MembershipAutomation
from repro.errors import ReadOnlyError
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.types import MemberInfo, MemberType


def two_region_spec(replicaset_id="edge-test"):
    return ReplicaSetSpec(
        replicaset_id,
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


class TestNoAutoStepDown:
    def test_partitioned_leader_waits_for_heal_consistency_over_availability(self):
        """§4.1: kuduraft has no automatic step-down. When the leader's
        whole region is partitioned away, the paper 'chooses consistency
        over availability and waits for the network partition to heal':
        the leader keeps leading, uncommitted writes pile up, nothing is
        falsely acknowledged, and healing resolves cleanly."""
        cluster = MyRaftReplicaset(two_region_spec(), seed=41)
        cluster.bootstrap()
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=1.0)
        # Partition region0 (leader + its data quorum) from region1.
        cluster.net.partition_regions("region0", "region1")
        # In-region quorum still commits! Single-region-dynamic means the
        # WAN partition does not block writes at all.
        process = cluster.write_and_run("t", {2: {"id": 2}}, seconds=1.0)
        assert process.done() and not process.failed()
        # region1 cannot elect: its candidates need region0 (last-known-
        # leader region) votes.
        cluster.run(10.0)
        leaders = [
            s for s in cluster.database_services()
            if s.node.is_leader and cluster.hosts[s.host.name].alive
        ]
        assert len(leaders) == 1 and leaders[0].host.name == "region0-db1"
        # Heal: region1 catches up; no divergence.
        cluster.net.heal_all()
        cluster.run(5.0)
        assert cluster.databases_converged()
        assert cluster.server("region1-db1").mysql.engine.table("t").get(2) == {"id": 2}

    def test_leader_cut_from_own_quorum_stalls_until_heal(self):
        """The nastier §4.1 case: the leader loses its own region's
        logtailers. Without auto step-down it stays leader; writes stall
        (never falsely acknowledged); healing resumes service."""
        cluster = MyRaftReplicaset(two_region_spec(), seed=43)
        cluster.bootstrap()
        cluster.net.isolate("region0-lt1")
        cluster.net.isolate("region0-lt2")
        stalled = cluster.write("t", {5: {"id": 5}})
        cluster.run(4.0)
        assert not stalled.done()
        cluster.net.heal("region0-lt1")
        cluster.run(3.0)
        assert stalled.done() and not stalled.failed()


class TestCatchupAcrossRotatedFiles:
    def test_new_follower_reads_historical_rotated_binlogs(self):
        """§3.1's log-abstraction story: a follower so far behind that the
        leader must parse historical (rotated) binlog files to serve it."""
        cluster = MyRaftReplicaset(two_region_spec(), seed=47)
        primary = cluster.bootstrap()
        cluster.crash("region1-db1")
        for round_index in range(3):
            for i in range(4):
                key = round_index * 4 + i
                cluster.write_and_run("t", {key: {"id": key}}, seconds=0.2)
            primary.flush_binary_logs()
            cluster.run(1.0)
        assert primary.mysql.log_manager.last_sequence() >= 4
        cluster.restart("region1-db1")
        cluster.run(8.0)
        replica = cluster.server("region1-db1")
        for key in range(12):
            assert replica.mysql.engine.table("t").get(key) == {"id": key}
        # The replica replayed the rotations too: same file cadence.
        assert replica.mysql.log_manager.content_checksum() == \
            primary.mysql.log_manager.content_checksum()


class TestMembershipPersistence:
    def test_membership_survives_crash_recovery(self):
        cluster = MyRaftReplicaset(two_region_spec(), seed=53)
        cluster.bootstrap()
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region1-lt3", "region1", MemberType.VOTER, False)
        report = automation.run_replace("region1-lt1", new_member)
        assert report.succeeded
        cluster.run(2.0)
        # Crash-and-restart a database member: its membership view must be
        # rebuilt from config entries in its log, not the stale bootstrap.
        cluster.crash("region1-db1")
        cluster.run(1.0)
        cluster.restart("region1-db1")
        cluster.run(5.0)
        replica = cluster.server("region1-db1")
        assert "region1-lt3" in replica.node.membership
        assert "region1-lt1" not in replica.node.membership

    def test_config_change_entry_truncated_reverts_membership(self):
        """A config entry appended on an isolated leader (never committed)
        must be rolled back with the log when the leader rejoins."""
        cluster = MyRaftReplicaset(two_region_spec(), seed=59)
        cluster.bootstrap()
        cluster.run(2.0)
        primary = cluster.primary_service()
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region0-lt9", "region0", MemberType.VOTER, False)
        automation.allocate_member(new_member)
        # Isolate the primary with its region quorum gone so the config
        # entry can never commit anywhere.
        cluster.net.isolate("region0-db1")
        cluster.net.isolate("region0-lt9")
        primary.node.config_changes.add_member(new_member)
        assert "region0-lt9" in primary.node.membership  # adopted on append
        cluster.run(1.0)
        # The rest elects a new leader (region1 can: region0's logtailers
        # are healthy voters for the last-leader-region majority).
        new_primary = cluster.wait_for_primary(timeout=30.0, exclude="region0-db1")
        assert "region0-lt9" not in new_primary.node.membership
        cluster.net.heal("region0-db1")
        cluster.run(8.0)
        old = cluster.server("region0-db1")
        # Truncation removed the config entry; membership reverted.
        assert "region0-lt9" not in old.node.membership


class TestMultiRegionMode:
    def test_multi_region_commit_tolerates_full_region_loss(self):
        spec = ReplicaSetSpec(
            "multi-region",
            (
                RegionSpec("region0", databases=1, logtailers=2),
                RegionSpec("region1", databases=1, logtailers=2),
                RegionSpec("region2", databases=1, logtailers=2),
            ),
        )
        cluster = MyRaftReplicaset(
            spec, seed=61, policy=FlexiRaftPolicy(FlexiMode.MULTI_REGION)
        )
        cluster.bootstrap()
        process = cluster.write_and_run("t", {1: {"id": 1}}, seconds=1.0)
        assert process.done() and not process.failed()
        # Lose a whole non-leader region: majority-of-regions still holds.
        for name in ("region2-db1", "region2-lt1", "region2-lt2"):
            cluster.crash(name)
        process = cluster.write_and_run("t", {2: {"id": 2}}, seconds=2.0)
        assert process.done() and not process.failed()


class _DemoteDuringPrepare:
    """A timing profile whose next ``prepare`` lasts ``seconds`` and
    schedules ``demote`` for the instant it starts: the write that drew it
    is demoted while it sleeps in prepare, before its GTID is assigned."""

    def __init__(self, timing, loop, demote, seconds: float) -> None:
        self._timing = timing
        self._loop = loop
        self._demote = demote
        self._seconds = seconds

    def __getattr__(self, name):
        return getattr(self._timing, name)

    def prepare(self, rng) -> float:
        if self._demote is None:
            return self._timing.prepare(rng)
        self._loop.call_soon(self._demote)
        self._demote = None
        return self._seconds


class TestWriteStraddlingDemotion:
    # 30 us (the median prepare) resumes the write as the last of an
    # applier flush group; 100 us puts it inside one, ahead of the
    # applier's next transaction.
    @pytest.mark.parametrize("prepare", [30e-6, 100e-6])
    def test_write_demoted_in_prepare_fails_and_the_applier_still_commits(self, prepare):
        """§3.3: a write admitted by the primary but demoted before its
        GTID is assigned never reaches the log. It must fail as
        read-only, not slip into the new applier pipeline, and the
        in-flight writes the demotion aborted must still commit when the
        applier re-applies them from the log."""
        cluster = MyRaftReplicaset(two_region_spec(), seed=47)
        primary = cluster.bootstrap()
        cluster.write_and_run("t", {0: {"id": 0}}, seconds=1.0)
        committed_before = primary.node.commit_index
        in_flight = [primary.submit_write("t", {k: {"id": k}}) for k in range(1, 5)]
        while primary.node.commit_index < committed_before + len(in_flight):
            cluster.loop.step()
        aborted = [k for k, write in enumerate(in_flight, 1) if not write.done()]
        assert len(aborted) >= 2
        node = primary.node
        primary.mysql.timing = _DemoteDuringPrepare(
            primary.mysql.timing,
            cluster.loop,
            lambda: node._step_down(node.current_term + 1, None),
            prepare,
        )
        straddler = primary.submit_write("t", {100: {"id": 100}})
        cluster.run(0.5)

        assert straddler.done() and isinstance(straddler.exception(), ReadOnlyError)
        assert primary.mysql.read_only
        assert primary.applier.applied == len(aborted)
        engine = primary.mysql.engine
        for k in range(1, 5):
            assert engine.table("t").get(k) == {"id": k}
        assert engine.table("t").get(100) is None  # never logged, never applied
        assert engine.locks.held_count() == 0

